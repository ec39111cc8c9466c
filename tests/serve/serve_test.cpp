/**
 * @file
 * Deterministic loopback tests for the serving layer: protocol
 * round-trips, per-tenant seed reproducibility (bit-identical replies
 * across runs and arrival interleavings), coalesced-vs-direct
 * equivalence against a BatchSampler driven by hand, and statistical
 * KS entries for the served gaussian-chain law and the fig11 speed
 * posterior (suite ServeStatistical; swept by stat_flake_audit.py).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "core/operators.hpp"
#include "core/uncertain.hpp"
#include "gps/geo.hpp"
#include "gps/sensor.hpp"
#include "gps/walking.hpp"
#include "inference/reweight.hpp"
#include "random/gaussian.hpp"
#include "serve/serve.hpp"
#include "serve_test_util.hpp"
#include "stat_assert.hpp"
#include "test_util.hpp"

namespace uncertain {
namespace {

using serve::LoopbackClient;
using serve::Opcode;
using serve::Request;
using serve::Response;
using serve::ServerOptions;
using serve::Status;
using serve::UncertainServer;
using testing::expectIdenticalReplies;
using testing::serveChainRequest;
using testing::serveGpsRequest;
using testing::sweptServerSeed;

// ---------------------------------------------------------------------
// Protocol round-trips.
// ---------------------------------------------------------------------

TEST(ServeProtocol, RequestRoundTripsThroughTheCodec)
{
    Request request;
    request.opcode = Opcode::TakeSamples;
    request.tenantId = 0x0123456789abcdefULL;
    request.requestId = 0xfedcba9876543210ULL;
    request.modelId = 42;
    request.sampleCount = 512;
    request.threshold = 0.625;
    request.params = {-1.5, 0.0, 3.25, 1e-9};

    const std::vector<std::uint8_t> frame =
        serve::encodeRequest(request);
    ASSERT_GE(frame.size(), 4u);
    // The length prefix covers exactly the rest of the frame.
    const std::size_t payload = frame.size() - 4;
    EXPECT_EQ(frame[0], payload & 0xff);
    EXPECT_EQ(frame[1], (payload >> 8) & 0xff);

    Request decoded;
    ASSERT_EQ(serve::decodeRequest(frame.data() + 4, payload, decoded),
              Status::Ok);
    EXPECT_EQ(decoded.opcode, request.opcode);
    EXPECT_EQ(decoded.tenantId, request.tenantId);
    EXPECT_EQ(decoded.requestId, request.requestId);
    EXPECT_EQ(decoded.modelId, request.modelId);
    EXPECT_EQ(decoded.sampleCount, request.sampleCount);
    EXPECT_EQ(decoded.threshold, request.threshold);
    EXPECT_EQ(decoded.params, request.params);
}

TEST(ServeProtocol, ResponseRoundTripsThroughTheCodec)
{
    Response response;
    response.status = Status::Ok;
    response.opcode = Opcode::Pr;
    response.decision = 2;
    response.tenantId = 7;
    response.requestId = 99;
    response.value = 0.8125;
    response.samplesUsed = 430;
    response.samples = {1.0, -2.5, 0.0};

    const std::vector<std::uint8_t> frame =
        serve::encodeResponse(response);
    ASSERT_GE(frame.size(), 4u);

    Response decoded;
    ASSERT_TRUE(serve::decodeResponse(frame.data() + 4,
                                      frame.size() - 4, decoded));
    expectIdenticalReplies(decoded, response);
}

/** Little-endian bytes appended one at a time: the wire layout of
 *  serve/protocol.hpp spelled out independently of the encoders. */
struct ByteLog
{
    std::vector<std::uint8_t> bytes;

    void
    put(std::uint64_t v, int width)
    {
        for (int i = 0; i < width; ++i)
            bytes.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }

    void
    f64(double v)
    {
        put(std::bit_cast<std::uint64_t>(v), 8);
    }

    /** Prefix with the u32 length of what was logged. */
    std::vector<std::uint8_t>
    frame() const
    {
        ByteLog out;
        out.put(bytes.size(), 4);
        out.bytes.insert(out.bytes.end(), bytes.begin(), bytes.end());
        return out.bytes;
    }
};

TEST(ServeProtocol, EncodersWriteTheDocumentedLayout)
{
    Request request;
    request.opcode = Opcode::Advise;
    request.tenantId = 0x0123456789abcdefULL;
    request.requestId = 0xfedcba9876543210ULL;
    request.modelId = 0xa1b2c3d4u;
    request.sampleCount = 77;
    request.threshold = -0.0;
    for (const std::size_t n : {std::size_t{0}, std::size_t{1},
                                serve::kMaxParams}) {
        request.params.clear();
        for (std::size_t i = 0; i < n; ++i)
            request.params.push_back(-1.5 * static_cast<double>(i) + 1e-300);
        ByteLog expected;
        expected.put(serve::kRequestMagic, 4);
        expected.put(serve::kProtocolVersion, 2);
        expected.put(static_cast<std::uint16_t>(request.opcode), 2);
        expected.put(request.tenantId, 8);
        expected.put(request.requestId, 8);
        expected.put(request.modelId, 4);
        expected.put(request.sampleCount, 4);
        expected.f64(request.threshold);
        expected.put(n, 4);
        for (double p : request.params)
            expected.f64(p);
        EXPECT_EQ(expected.bytes.size(), 44 + 8 * n);
        EXPECT_EQ(serve::encodeRequest(request), expected.frame())
            << n << " params";
    }

    Response response;
    response.status = Status::Overloaded;
    response.opcode = Opcode::TakeSamples;
    response.decision = 0xbeef;
    response.tenantId = 0x1122334455667788ULL;
    response.requestId = 3;
    response.value = 6.02e23;
    response.samplesUsed = 0x0102030405060708ULL;
    for (const std::size_t n : {std::size_t{0}, std::size_t{3},
                                std::size_t{1000}}) {
        response.samples.clear();
        for (std::size_t i = 0; i < n; ++i)
            response.samples.push_back(0.1 * static_cast<double>(i) - 7.0);
        ByteLog expected;
        expected.put(serve::kResponseMagic, 4);
        expected.put(serve::kProtocolVersion, 2);
        expected.put(static_cast<std::uint16_t>(response.status), 2);
        expected.put(static_cast<std::uint16_t>(response.opcode), 2);
        expected.put(response.decision, 2);
        expected.put(response.tenantId, 8);
        expected.put(response.requestId, 8);
        expected.f64(response.value);
        expected.put(response.samplesUsed, 8);
        expected.put(n, 4);
        for (double v : response.samples)
            expected.f64(v);
        EXPECT_EQ(expected.bytes.size(), 48 + 8 * n);
        EXPECT_EQ(serve::encodeResponse(response), expected.frame())
            << n << " samples";
    }
}

TEST(ServeProtocol, DecodeRejectsBadMagicVersionAndTrailingBytes)
{
    const Request request = serveChainRequest(Opcode::Pr, 1, 1);
    std::vector<std::uint8_t> frame = serve::encodeRequest(request);
    std::vector<std::uint8_t> payload(frame.begin() + 4, frame.end());

    Request decoded;
    // Bad magic.
    std::vector<std::uint8_t> bad = payload;
    bad[0] ^= 0xff;
    EXPECT_EQ(serve::decodeRequest(bad.data(), bad.size(), decoded),
              Status::Malformed);
    // Bad version.
    bad = payload;
    bad[4] ^= 0xff;
    EXPECT_EQ(serve::decodeRequest(bad.data(), bad.size(), decoded),
              Status::Malformed);
    // Truncated body.
    EXPECT_EQ(serve::decodeRequest(payload.data(), payload.size() - 3,
                                   decoded),
              Status::Malformed);
    // Trailing bytes.
    bad = payload;
    bad.push_back(0);
    EXPECT_EQ(serve::decodeRequest(bad.data(), bad.size(), decoded),
              Status::Malformed);
    // The header parsed, so the mangled-body error recovered the ids.
    EXPECT_EQ(decoded.tenantId, request.tenantId);
    EXPECT_EQ(decoded.requestId, request.requestId);
}

TEST(ServeProtocol, DecodeRejectsOutOfRangeFields)
{
    Request request = serveChainRequest(Opcode::Pr, 1, 1);
    Request decoded;

    // Unknown opcode.
    std::vector<std::uint8_t> frame = serve::encodeRequest(request);
    frame[4 + 6] = 0x7f; // opcode low byte within the payload
    EXPECT_EQ(serve::decodeRequest(frame.data() + 4, frame.size() - 4,
                                   decoded),
              Status::BadRequest);

    // Too many params.
    request.params.assign(serve::kMaxParams + 1, 0.0);
    frame = serve::encodeRequest(request);
    EXPECT_EQ(serve::decodeRequest(frame.data() + 4, frame.size() - 4,
                                   decoded),
              Status::BadRequest);

    // TakeSamples beyond the per-reply cap.
    request = serveChainRequest(Opcode::TakeSamples, 1, 1);
    request.sampleCount =
        static_cast<std::uint32_t>(serve::kMaxSamplesPerReply + 1);
    frame = serve::encodeRequest(request);
    EXPECT_EQ(serve::decodeRequest(frame.data() + 4, frame.size() - 4,
                                   decoded),
              Status::BadRequest);
}

// ---------------------------------------------------------------------
// Per-tenant seed reproducibility.
// ---------------------------------------------------------------------

TEST(ServeRepro, RepliesAreBitIdenticalAcrossArrivalOrders)
{
    ServerOptions options;
    options.seed = sweptServerSeed(11);

    // A mixed workload across three tenants and both builtin models.
    std::vector<Request> workload;
    for (std::uint64_t tenant = 1; tenant <= 3; ++tenant) {
        workload.push_back(serveChainRequest(Opcode::Pr, tenant, 1));
        workload.push_back(
            serveChainRequest(Opcode::ExpectedValue, tenant, 2));
        Request take = serveChainRequest(Opcode::TakeSamples, tenant, 3);
        take.sampleCount = 64;
        workload.push_back(take);
        workload.push_back(serveGpsRequest(Opcode::Advise, tenant, 4));
    }

    using Key = std::pair<std::uint64_t, std::uint64_t>;
    const auto serveAll =
        [](ServerOptions opts,
           std::vector<Request> requests) -> std::map<Key, Response> {
        UncertainServer server(std::move(opts));
        server.start();
        LoopbackClient client(server);
        for (const Request& request : requests)
            client.send(request);
        std::map<Key, Response> replies;
        for (std::size_t i = 0; i < requests.size(); ++i) {
            Response response;
            EXPECT_TRUE(client.receive(response));
            EXPECT_EQ(response.status, Status::Ok);
            replies[{response.tenantId, response.requestId}] = response;
        }
        return replies;
    };

    const auto forward = serveAll(options, workload);
    std::vector<Request> reversed(workload.rbegin(), workload.rend());
    const auto backward = serveAll(options, reversed);

    ASSERT_EQ(forward.size(), workload.size());
    ASSERT_EQ(backward.size(), workload.size());
    for (const auto& [key, response] : forward) {
        SCOPED_TRACE(::testing::Message()
                     << "tenant " << key.first << " request "
                     << key.second);
        expectIdenticalReplies(response, backward.at(key));
    }
}

TEST(ServeRepro, ReplayingARequestIdYieldsTheSameReply)
{
    ServerOptions options;
    options.seed = sweptServerSeed(12);
    UncertainServer server(options);
    server.start();
    LoopbackClient client(server);

    Request take = serveChainRequest(Opcode::TakeSamples, 9, 1234);
    take.sampleCount = 128;
    const Response first = client.call(take);
    const Response replay = client.call(take);
    ASSERT_EQ(first.status, Status::Ok);
    expectIdenticalReplies(first, replay);

    // A different requestId is a different stream.
    Request other = take;
    other.requestId = 1235;
    const Response different = client.call(other);
    ASSERT_EQ(different.status, Status::Ok);
    EXPECT_NE(different.samples, first.samples);
}

TEST(ServeRepro, SharePlansAxisDoesNotChangeReplies)
{
    // Coalescing / plan sharing is a scheduling optimization: the
    // per-request-compile baseline must produce identical bits.
    ServerOptions coalesced;
    coalesced.seed = sweptServerSeed(13);

    ServerOptions perRequest = coalesced;
    perRequest.sharePlans = false;
    perRequest.maxBatch = 1;
    perRequest.batchWindowMicros = 0;

    std::vector<Request> workload;
    workload.push_back(serveChainRequest(Opcode::Pr, 5, 1));
    workload.push_back(serveChainRequest(Opcode::ExpectedValue, 5, 2));
    Request take = serveChainRequest(Opcode::TakeSamples, 6, 3);
    take.sampleCount = 96;
    workload.push_back(take);
    workload.push_back(serveGpsRequest(Opcode::Advise, 6, 4));

    UncertainServer serverA(coalesced);
    serverA.start();
    UncertainServer serverB(perRequest);
    serverB.start();
    LoopbackClient clientA(serverA);
    LoopbackClient clientB(serverB);
    for (const Request& request : workload) {
        SCOPED_TRACE(::testing::Message()
                     << "request " << request.requestId);
        expectIdenticalReplies(clientA.call(request),
                               clientB.call(request));
    }
}

TEST(ServeRepro, RebuiltInstancesReproduceAfterCacheEviction)
{
    // Capacity 1 forces the gps instance to evict the chain instance
    // and vice versa; rebuilt instances must serve identical bits
    // because the build stream is a pure function of (seed, model,
    // params).
    ServerOptions options;
    options.seed = sweptServerSeed(14);
    options.modelInstanceCapacity = 1;
    UncertainServer server(options);
    server.start();
    LoopbackClient client(server);

    Request chain = serveChainRequest(Opcode::TakeSamples, 2, 10);
    chain.sampleCount = 32;
    Request gpsTake = serveGpsRequest(Opcode::TakeSamples, 2, 11);
    gpsTake.sampleCount = 32;

    const Response chainFirst = client.call(chain);
    const Response gpsFirst = client.call(gpsTake);
    const Response chainAgain = client.call(chain); // rebuilt
    const Response gpsAgain = client.call(gpsTake); // rebuilt
    expectIdenticalReplies(chainFirst, chainAgain);
    expectIdenticalReplies(gpsFirst, gpsAgain);
    EXPECT_GE(serve::serverStats(server).modelBuilds, 3u);
}

TEST(ServeRepro, SignedZeroParamsBuildDistinctInstances)
{
    // +0.0 == -0.0 as doubles, but the build stream hashes the bits:
    // the two requests below must be served from two instances even
    // when they arrive in one coalesced batch, each reply exactly
    // what a solo server gives it.
    ServerOptions options;
    options.seed = sweptServerSeed(15);
    options.maxBatch = 8;
    options.batchWindowMicros = 50000; // generous: gather both
    Request positive = serveGpsRequest(Opcode::ExpectedValue, 4, 1);
    positive.params[0] = 0.0;
    Request negative = serveGpsRequest(Opcode::ExpectedValue, 4, 2);
    negative.params[0] = -0.0;

    UncertainServer server(options);
    LoopbackClient client(server);
    // Queued before the workers start, so the first gather takes
    // both into one batch.
    client.send(positive);
    client.send(negative);
    server.start();
    std::map<std::uint64_t, Response> replies;
    for (int i = 0; i < 2; ++i) {
        Response response;
        ASSERT_TRUE(client.receive(response));
        ASSERT_EQ(response.status, Status::Ok);
        replies[response.requestId] = response;
    }
    const serve::ServerStats stats = serve::serverStats(server);
    EXPECT_EQ(stats.batches, 1u);
    EXPECT_EQ(stats.batchOccupancyMax, 2u);
    EXPECT_EQ(stats.modelBuilds, 2u);
    EXPECT_EQ(stats.coalescedRequests, 0u); // two groups of one

    for (const Request& request : {positive, negative}) {
        ServerOptions soloOptions = options;
        soloOptions.maxBatch = 1;
        UncertainServer solo(soloOptions);
        solo.start();
        LoopbackClient soloClient(solo);
        EXPECT_EQ(serve::encodeResponse(replies.at(request.requestId)),
                  serve::encodeResponse(soloClient.call(request)))
            << "lat " << request.params[0];
    }
    // Different build streams: the two posteriors differ.
    EXPECT_NE(replies.at(1).value, replies.at(2).value);
}

// ---------------------------------------------------------------------
// Coalesced-vs-direct equivalence.
// ---------------------------------------------------------------------

/** The gaussian-chain graph exactly as the builtin builder shapes it;
 *  plans are pure functions of graph shape, so a locally built twin
 *  must reproduce the server's draws. */
struct ChainTwin
{
    Uncertain<double> value;
    Uncertain<bool> event;

    ChainTwin(double mu, double sigma, int depth, double cut)
        : value(core::fromDistribution(
              std::make_shared<random::Gaussian>(mu, sigma))),
          event(value > cut)
    {
        for (int i = 0; i < depth; ++i)
            value = value + serve::kGaussianChainStep;
        event = value > cut;
    }
};

TEST(ServeEquivalence, PrMatchesDirectBatchSampler)
{
    ServerOptions options;
    options.seed = sweptServerSeed(21);
    UncertainServer server(options);
    server.start();
    LoopbackClient client(server);

    const Request request =
        serveChainRequest(Opcode::Pr, 7, 42, 0.25, 1.5, 12.0, 1.0);
    Request threshold = request;
    threshold.threshold = 0.6;
    const Response response = client.call(threshold);
    ASSERT_EQ(response.status, Status::Ok);

    ChainTwin twin(0.25, 1.5, 12, 1.0);
    core::BatchSampler sampler(options.batch);
    Rng rng = Rng(options.seed).split(7).split(42);
    const core::ConditionalResult direct = sampler.evaluateCondition(
        twin.event.node(), 0.6, options.conditional, rng);

    EXPECT_EQ(response.decision,
              static_cast<std::uint16_t>(direct.decision));
    EXPECT_EQ(response.value, direct.estimate);
    EXPECT_EQ(response.samplesUsed, direct.samplesUsed);
}

TEST(ServeEquivalence, ExpectedValueAndSamplesMatchDirectBatchSampler)
{
    ServerOptions options;
    options.seed = sweptServerSeed(22);
    UncertainServer server(options);
    server.start();
    LoopbackClient client(server);

    Request ev = serveChainRequest(Opcode::ExpectedValue, 3, 8, -1.0, 0.5,
                              4.0, 0.0);
    ev.sampleCount = 500;
    const Response evReply = client.call(ev);
    ASSERT_EQ(evReply.status, Status::Ok);

    Request take = ev;
    take.opcode = Opcode::TakeSamples;
    take.requestId = 9;
    take.sampleCount = 200;
    const Response takeReply = client.call(take);
    ASSERT_EQ(takeReply.status, Status::Ok);

    ChainTwin twin(-1.0, 0.5, 4, 0.0);
    core::BatchSampler sampler(options.batch);

    Rng evRng = Rng(options.seed).split(3).split(8);
    EXPECT_EQ(evReply.value,
              sampler.expectedValue<double>(twin.value.node(), 500,
                                            evRng));

    Rng takeRng = Rng(options.seed).split(3).split(9);
    const std::vector<double> direct =
        sampler.takeSamples<double>(twin.value.node(), 200, takeRng);
    ASSERT_EQ(takeReply.samples.size(), direct.size());
    for (std::size_t i = 0; i < direct.size(); ++i)
        EXPECT_EQ(takeReply.samples[i], direct[i]) << "sample " << i;

    // A multi-block ExpectedValue with a partial last block runs its
    // blocks on the worker and the scheduler's helpers; the reply
    // must still be the serial plan-direct mean, bit for bit.
    Request wide = ev;
    wide.requestId = 10;
    wide.sampleCount = 3 * options.batch.blockSize + 17;
    const Response wideReply = client.call(wide);
    ASSERT_EQ(wideReply.status, Status::Ok);
    Rng wideRng = Rng(options.seed).split(3).split(10);
    const double serialMean = sampler.expectedValuePlan<double>(
        sampler.planFor(twin.value.node()), wide.sampleCount, wideRng);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(wideReply.value),
              std::bit_cast<std::uint64_t>(serialMean));
}

TEST(ServeEquivalence, TakeSamplesReplyMeanIsTheExpectedValueReply)
{
    ServerOptions options;
    options.seed = sweptServerSeed(23);
    // Small blocks, so a TakeSamples within kMaxSamplesPerReply spans
    // several of them.
    options.batch.blockSize = 256;
    UncertainServer server(options);
    server.start();
    LoopbackClient client(server);

    // Same tenant and request id, so the same stream: the two replies
    // carry the same draws' mean, and the serving path has one shape.
    for (std::size_t n : {std::size_t{9}, 3 * options.batch.blockSize + 17}) {
        Request take = serveChainRequest(Opcode::TakeSamples, 3, 11, -1.0,
                                         0.5, 4.0, 0.0);
        take.sampleCount = static_cast<std::uint32_t>(n);
        Request ev = take;
        ev.opcode = Opcode::ExpectedValue;
        const Response takeReply = client.call(take);
        const Response evReply = client.call(ev);
        ASSERT_EQ(takeReply.status, Status::Ok);
        ASSERT_EQ(evReply.status, Status::Ok);
        ASSERT_EQ(takeReply.samples.size(), n);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(takeReply.value),
                  std::bit_cast<std::uint64_t>(evReply.value))
            << "n " << n;
    }
}

TEST(ServeScheduler, HelpersStartOnTheFirstMultiBlockQuery)
{
    ServerOptions options;
    options.seed = sweptServerSeed(24);
    UncertainServer server(options);
    server.start();
    LoopbackClient client(server);
    const auto& scheduler = server.blockScheduler();
    const unsigned cpus = core::availableCpus();
    EXPECT_EQ(scheduler->helpers(),
              cpus > options.workers ? cpus - options.workers : 0u);

    // Single-block queries never touch the scheduler.
    Request ev = serveChainRequest(Opcode::ExpectedValue, 4, 1, 0.0, 1.0,
                                   8.0, 0.0);
    ev.sampleCount = options.batch.blockSize;
    ASSERT_EQ(client.call(ev).status, Status::Ok);
    Request take = ev;
    take.opcode = Opcode::TakeSamples;
    take.requestId = 2;
    ASSERT_EQ(client.call(take).status, Status::Ok);
    EXPECT_EQ(scheduler->startedHelpers(), 0u);

    ev.requestId = 3;
    ev.sampleCount = 2 * options.batch.blockSize + 1;
    ASSERT_EQ(client.call(ev).status, Status::Ok);
    EXPECT_EQ(scheduler->startedHelpers(), scheduler->helpers());

    server.stop();
    EXPECT_EQ(scheduler->startedHelpers(), 0u);
}

TEST(ServeEquivalence, AdviseMatchesWalkingDecisionLogic)
{
    ServerOptions options;
    options.seed = sweptServerSeed(23);
    UncertainServer server(options);
    server.start();
    LoopbackClient client(server);

    // Chain mean 8 mph: clearly brisk -> GoodJob. Mean 0.5: clearly
    // slow -> SpeedUp (>= 90% evidence). Mean 3.5 with sd 1: neither
    // convincingly brisk (Pr[x > 4] ~ 0.31, far below the 0.5 bar)
    // nor >= 90% slow (Pr[x < 4] ~ 0.69), so both SPRTs accept their
    // null with a wide margin -> None. (Sitting the mean exactly on
    // the 4 mph cut would make the brisk test a coin flip.)
    const Response brisk = client.call(
        serveChainRequest(Opcode::Advise, 1, 1, 8.0, 0.5, 0.0, 0.0));
    ASSERT_EQ(brisk.status, Status::Ok);
    EXPECT_EQ(brisk.decision,
              static_cast<std::uint16_t>(gps::Advice::GoodJob));

    const Response slow = client.call(
        serveChainRequest(Opcode::Advise, 1, 2, 0.5, 0.5, 0.0, 0.0));
    ASSERT_EQ(slow.status, Status::Ok);
    EXPECT_EQ(slow.decision,
              static_cast<std::uint16_t>(gps::Advice::SpeedUp));

    const Response borderline = client.call(serveChainRequest(
        Opcode::Advise, 1, 3, 3.5, 1.0, 0.0, 0.0));
    ASSERT_EQ(borderline.status, Status::Ok);
    EXPECT_EQ(borderline.decision,
              static_cast<std::uint16_t>(gps::Advice::None));
}

TEST(ServeEquivalence, CoalescedGroupsShareThePlanCache)
{
    // Many tenants asking the same model through one batch window
    // must resolve one plan lineage, not one per request.
    ServerOptions options;
    options.seed = sweptServerSeed(24);
    options.maxBatch = 16;
    options.batchWindowMicros = 50000; // generous: gather everything
    UncertainServer server(options);
    LoopbackClient client(server);

    // Queue the whole burst before starting the workers: the first
    // gather deterministically finds all eight requests waiting.
    std::vector<Request> burst;
    for (std::uint64_t tenant = 1; tenant <= 8; ++tenant)
        burst.push_back(serveChainRequest(Opcode::Pr, tenant, 100));
    for (const Request& request : burst)
        client.send(request);
    server.start();
    for (std::size_t i = 0; i < burst.size(); ++i) {
        Response response;
        ASSERT_TRUE(client.receive(response));
        EXPECT_EQ(response.status, Status::Ok);
    }

    const serve::ServerStats stats = serve::serverStats(server);
    EXPECT_EQ(stats.executed, burst.size());
    EXPECT_GE(stats.coalescedRequests, 2u);
    EXPECT_LT(stats.batches, burst.size());
    // One event-root plan serves the whole group: compiles stay O(1)
    // in the number of requests.
    const core::PlanCacheStats cacheStats =
        server.planCache()->stats();
    EXPECT_GE(cacheStats.hits, 1u);
    EXPECT_FALSE(serverReport(stats).empty());
}

TEST(ServeStats, LatencyHistogramQuantilesWithinOnePercent)
{
    // 1e5 log-uniform latencies over 1 us .. 10 s, in whole micros.
    Rng rng(0x1a7e5c1ULL);
    std::vector<std::uint64_t> latencies(100000);
    for (std::uint64_t& micros : latencies) {
        micros = static_cast<std::uint64_t>(
            std::llround(std::exp(rng.nextDouble() * std::log(1e7))));
    }
    serve::LatencyHistogram whole;
    serve::LatencyHistogram halves[2];
    for (std::size_t i = 0; i < latencies.size(); ++i) {
        whole.record(latencies[i]);
        halves[i % 2].record(latencies[i]);
    }
    halves[0].merge(halves[1]);
    ASSERT_EQ(halves[0].count(), latencies.size());

    std::sort(latencies.begin(), latencies.end());
    for (double q : {0.5, 0.99, 0.999}) {
        // The smallest value with at least q of the samples at or
        // below it: the histogram's own quantile rule.
        const auto rank = static_cast<std::size_t>(
            std::ceil(q * static_cast<double>(latencies.size())));
        const double exact = static_cast<double>(latencies[rank - 1]);
        EXPECT_NEAR(whole.quantile(q), exact, 0.01 * exact) << "q " << q;
        EXPECT_EQ(halves[0].quantile(q), whole.quantile(q)) << "q " << q;
    }
}

// ---------------------------------------------------------------------
// Statistical conformance of served laws (swept by stat_flake_audit).
// ---------------------------------------------------------------------

TEST(ServeStatistical, ServedGaussianChainMatchesAnalyticLaw)
{
    ServerOptions options;
    options.seed = sweptServerSeed(31);
    UncertainServer server(options);
    server.start();
    LoopbackClient client(server);

    const double mu = 1.0;
    const double sigma = 2.0;
    const double depth = 16.0;
    std::vector<double> samples;
    for (std::uint64_t id = 0; id < 4; ++id) {
        Request take =
            serveChainRequest(Opcode::TakeSamples, 40, id, mu, sigma, depth,
                         0.0);
        take.sampleCount = 1024;
        const Response reply = client.call(take);
        ASSERT_EQ(reply.status, Status::Ok);
        samples.insert(samples.end(), reply.samples.begin(),
                       reply.samples.end());
    }

    const double servedMean =
        mu + depth * serve::kGaussianChainStep;
    const random::Gaussian law(servedMean, sigma);
    EXPECT_TRUE(testing::ksMatchesDistribution(samples, law));
    EXPECT_TRUE(testing::momentsMatch(samples, servedMean, sigma));
}

TEST(ServeStatistical, ServedSpeedPosteriorMatchesDirectPipeline)
{
    // The fig11 posterior, two ways. (a) Calibrated two-sample KS:
    // two tenants draw from the SAME served pool through independent
    // per-tenant streams, so both sides are iid the same empirical
    // law and the test runs at its nominal alpha. (b) Cross-pipeline
    // moments: the served pool and a hand-built speedFromFixes +
    // improveSpeed pool are both finite SIR approximations of the
    // same posterior, so their empirical CDFs differ by O(1/sqrt(
    // resampleSize)) — more than a 2k-sample KS resolves. Compare
    // mean/sd with an explicit pool-noise term instead.
    ServerOptions options;
    options.seed = sweptServerSeed(32);
    UncertainServer server(options);
    server.start();
    LoopbackClient client(server);

    const Request base = serveGpsRequest(Opcode::TakeSamples, 50, 0);
    auto draw = [&](std::uint64_t tenant) {
        std::vector<double> samples;
        for (std::uint64_t id = 0; id < 4; ++id) {
            Request take = base;
            take.tenantId = tenant;
            take.requestId = id;
            take.sampleCount = 512;
            const Response reply = client.call(take);
            EXPECT_EQ(reply.status, Status::Ok);
            samples.insert(samples.end(), reply.samples.begin(),
                           reply.samples.end());
        }
        return samples;
    };
    const std::vector<double> served = draw(50);
    const std::vector<double> servedOther = draw(60);
    EXPECT_TRUE(testing::ksSameDistribution(served, servedOther));

    // Direct pipeline with a much larger pool: its moments stand in
    // for the true posterior's, leaving the served pool's own
    // approximation error as the dominant noise term.
    const gps::GeoCoordinate start(base.params[0], base.params[1]);
    const gps::GpsFix earlier{start, base.params[2], 0.0};
    const gps::GpsFix later{
        gps::destination(start, base.params[3], base.params[4]),
        base.params[2], base.params[5]};
    inference::ReweightOptions bigPool;
    bigPool.proposalSamples = 20000;
    bigPool.resampleSize = 10000;
    Rng rng = testing::testRng(3251);
    Uncertain<double> improved = gps::improveSpeed(
        gps::speedFromFixes(earlier, later), bigPool, rng);
    core::BatchSampler sampler;
    const std::vector<double> direct = sampler.takeSamples<double>(
        improved.node(), 8192, rng);

    stats::OnlineSummary servedSummary;
    servedSummary.addAll(served);
    servedSummary.addAll(servedOther);
    stats::OnlineSummary directSummary;
    directSummary.addAll(direct);
    const double sd = directSummary.stddev();
    // 5-sigma draw noise for the served samples plus 5-sigma pool
    // noise for the default-size served pool (resampleSize atoms).
    const std::size_t poolAtoms =
        inference::ReweightOptions{}.resampleSize;
    const double meanTol =
        testing::meanTolerance(sd, servedSummary.count()) +
        testing::meanTolerance(sd, poolAtoms);
    EXPECT_NEAR(servedSummary.mean(), directSummary.mean(), meanTol);
    const double sdTol =
        5.0 * sd *
        (std::sqrt(2.0 / static_cast<double>(servedSummary.count())) +
         std::sqrt(2.0 / static_cast<double>(poolAtoms)));
    EXPECT_NEAR(servedSummary.stddev(), sd, sdTol);
    // The walking prior truncates to [0, 10] mph; the posterior must
    // respect its support.
    for (double s : served) {
        ASSERT_GE(s, 0.0);
        ASSERT_LE(s, 10.0);
    }
}

} // namespace
} // namespace uncertain
