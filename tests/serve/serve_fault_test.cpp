/**
 * @file
 * Fault injection against the serving layer: malformed / truncated /
 * oversized frames, bad parameters, unknown models, queue-full
 * admission rejection under a deterministically blocked worker,
 * slow consumers bounded by the transport (not the server), shutdown
 * refusals, and TCP clients disconnecting mid-flight. Every scenario
 * asserts the server stays serviceable afterwards.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/operators.hpp"
#include "core/uncertain.hpp"
#include "serve/serve.hpp"
#include "serve_test_util.hpp"
#include "support/error.hpp"
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
using testing::serveChainRequest;
using testing::sweptServerSeed;

/**
 * A latch the blocker model's sampler parks on: enter() blocks until
 * release(), which opens the gate permanently. Lets a test hold a
 * worker mid-execution at a deterministic point.
 */
struct Gate
{
    std::mutex mutex;
    std::condition_variable cv;
    bool entered = false;
    bool released = false;

    void
    enter()
    {
        std::unique_lock<std::mutex> lock(mutex);
        entered = true;
        cv.notify_all();
        cv.wait(lock, [this] { return released; });
    }

    void
    waitEntered()
    {
        std::unique_lock<std::mutex> lock(mutex);
        cv.wait(lock, [this] { return entered; });
    }

    void
    release()
    {
        std::lock_guard<std::mutex> lock(mutex);
        released = true;
        cv.notify_all();
    }
};

constexpr std::uint32_t kBlockerModel = 99;

/** Register a model whose every draw parks on @p gate until it is
 *  released (scalar sampler only — the plan's fallback loop). */
void
registerBlockerModel(UncertainServer& server, std::shared_ptr<Gate> gate)
{
    server.registerModel(
        kBlockerModel,
        [gate](const std::vector<double>&, Rng&,
               serve::ModelInstance& out) {
            Uncertain<double> x = Uncertain<double>::fromSampler(
                [gate](Rng& rng) {
                    gate->enter();
                    return rng.nextDouble();
                },
                "gate-blocked");
            out.value = x.node();
            out.event = (x > 0.5).node();
            out.fast = out.event;
            out.slow = (x < 0.5).node();
            return true;
        });
}

TEST(ServeFault, MalformedFramesAreAnsweredAndServerStaysUp)
{
    UncertainServer server;
    server.start();
    LoopbackClient client(server);

    // Arbitrary junk: too short to even carry a header.
    const std::uint8_t junk[] = {0xde, 0xad, 0xbe, 0xef};
    client.sendRaw(junk, sizeof junk);
    Response reply;
    ASSERT_TRUE(client.receive(reply));
    EXPECT_EQ(reply.status, Status::Malformed);

    // A valid request truncated mid-body.
    const std::vector<std::uint8_t> frame =
        serve::encodeRequest(serveChainRequest(Opcode::Pr, 3, 1));
    client.sendRaw(frame.data() + 4, frame.size() - 4 - 5);
    ASSERT_TRUE(client.receive(reply));
    EXPECT_EQ(reply.status, Status::Malformed);
    // The header survived the truncation, so the refusal echoes ids.
    EXPECT_EQ(reply.tenantId, 3u);
    EXPECT_EQ(reply.requestId, 1u);

    // The connection (conceptually) stays usable afterwards.
    EXPECT_EQ(client.call(serveChainRequest(Opcode::Pr, 3, 2)).status,
              Status::Ok);
    EXPECT_EQ(serve::serverStats(server).malformed, 2u);
}

TEST(ServeFault, OversizedPayloadIsAnsweredTooLarge)
{
    UncertainServer server;
    server.start();
    LoopbackClient client(server);

    const std::vector<std::uint8_t> big(
        serve::kMaxRequestFrameBytes + 1, 0);
    client.sendRaw(big.data(), big.size());
    Response reply;
    ASSERT_TRUE(client.receive(reply));
    EXPECT_EQ(reply.status, Status::TooLarge);
    EXPECT_EQ(client.call(serveChainRequest(Opcode::Pr, 1, 1)).status,
              Status::Ok);
}

TEST(ServeFault, BadParamsAndUnknownModelsAreRefused)
{
    UncertainServer server;
    server.start();
    LoopbackClient client(server);

    // sigma <= 0: the builder refuses, discovered at execution.
    Request badSigma =
        serveChainRequest(Opcode::Pr, 1, 1, 0.0, -1.0, 4.0, 0.5);
    EXPECT_EQ(client.call(badSigma).status, Status::BadRequest);

    // Pr threshold outside (0, 1): refused at admission.
    Request badThreshold = serveChainRequest(Opcode::Pr, 1, 2);
    badThreshold.threshold = 1.5;
    EXPECT_EQ(client.call(badThreshold).status, Status::BadRequest);

    // Unregistered model id: refused at admission.
    Request unknown = serveChainRequest(Opcode::Pr, 1, 3);
    unknown.modelId = 777;
    EXPECT_EQ(client.call(unknown).status, Status::UnknownModel);

    // None of that poisoned the server.
    EXPECT_EQ(client.call(serveChainRequest(Opcode::Pr, 1, 4)).status,
              Status::Ok);
    const serve::ServerStats stats = serve::serverStats(server);
    EXPECT_EQ(stats.badRequest, 2u);
    EXPECT_EQ(stats.unknownModel, 1u);
    EXPECT_EQ(stats.executed, 1u);
}

TEST(ServeFault, IntegerDivisionByZeroIsABadRequest)
{
    // A registered model whose every draw divides by an integer zero:
    // the plan throws the named Error, the server answers BadRequest,
    // and the worker keeps serving.
    constexpr std::uint32_t kDivideByZeroModel = 98;
    UncertainServer server;
    server.registerModel(
        kDivideByZeroModel,
        [](const std::vector<double>&, Rng&, serve::ModelInstance& out) {
            const Uncertain<int> counts = Uncertain<int>::fromSampler(
                [](Rng& rng) { return static_cast<int>(rng.nextBelow(5)); },
                "counts");
            const Uncertain<double> x =
                (counts / Uncertain<int>(0)).map([](int v) {
                    return static_cast<double>(v);
                });
            out.value = x.node();
            out.event = (x > 0.5).node();
            out.fast = out.event;
            out.slow = (x < 0.5).node();
            return true;
        });
    server.start();
    LoopbackClient client(server);

    std::uint64_t id = 0;
    for (Opcode opcode : {Opcode::Pr, Opcode::ExpectedValue,
                          Opcode::TakeSamples, Opcode::Advise}) {
        Request request;
        request.opcode = opcode;
        request.tenantId = 1;
        request.requestId = ++id;
        request.modelId = kDivideByZeroModel;
        request.sampleCount = 64;
        const Response reply = client.call(request);
        EXPECT_EQ(reply.status, Status::BadRequest)
            << "opcode " << static_cast<int>(opcode);
        EXPECT_EQ(reply.requestId, id);
    }
    EXPECT_EQ(client.call(serveChainRequest(Opcode::Pr, 1, ++id)).status,
              Status::Ok);
    const serve::ServerStats stats = serve::serverStats(server);
    EXPECT_EQ(stats.badRequest, 4u);
    EXPECT_EQ(stats.executed, 1u);
}

TEST(ServeFault, QueueFullRejectsWithExplicitOverloadStatus)
{
    ServerOptions options;
    options.seed = sweptServerSeed(41);
    options.queueCapacity = 2;
    options.maxBatch = 1;
    options.batchWindowMicros = 0;
    options.workers = 1;
    // Keep the blocked query cheap once the gate opens.
    options.conditional.sprt.maxSamples = 64;
    UncertainServer server(options);
    auto gate = std::make_shared<Gate>();
    registerBlockerModel(server, gate);
    server.start();
    LoopbackClient client(server);

    const auto blocked = [](std::uint64_t id) {
        Request request;
        request.opcode = Opcode::Pr;
        request.tenantId = 1;
        request.requestId = id;
        request.modelId = kBlockerModel;
        return request;
    };

    // The worker dequeues the first request and parks on the gate;
    // the queue is then provably empty.
    client.send(blocked(1));
    gate->waitEntered();
    // Fill the bounded queue to capacity, then overflow it.
    client.send(blocked(2));
    client.send(blocked(3));
    client.send(blocked(4));

    // The overflow is answered immediately — the only reply that can
    // exist while the worker is still parked.
    Response overloaded;
    ASSERT_TRUE(client.receive(overloaded));
    EXPECT_EQ(overloaded.status, Status::Overloaded);
    EXPECT_EQ(overloaded.requestId, 4u);

    // Release the gate: the parked and queued requests all complete
    // and the server stays serviceable.
    gate->release();
    for (int i = 0; i < 3; ++i) {
        Response reply;
        ASSERT_TRUE(client.receive(reply));
        EXPECT_EQ(reply.status, Status::Ok);
    }
    EXPECT_EQ(client.call(serveChainRequest(Opcode::Pr, 1, 5)).status,
              Status::Ok);

    const serve::ServerStats stats = serve::serverStats(server);
    EXPECT_EQ(stats.rejectedOverload, 1u);
    EXPECT_EQ(stats.queuePeak, 2u);
}

TEST(ServeFault, SlowConsumerIsBoundedWithoutBlockingTheServer)
{
    ServerOptions options;
    options.seed = sweptServerSeed(42);
    UncertainServer server(options);
    server.start();

    // A consumer that never drains its single-slot inbox.
    LoopbackClient slow(server, /*inboxCapacity=*/1);
    constexpr int kRequests = 5;
    for (std::uint64_t id = 0; id < kRequests; ++id) {
        Request request =
            serveChainRequest(Opcode::ExpectedValue, 8, id);
        request.sampleCount = 64;
        slow.send(request);
    }

    // A healthy client is served while the slow one backs up.
    LoopbackClient healthy(server);
    EXPECT_EQ(
        healthy.call(serveChainRequest(Opcode::Pr, 9, 1)).status,
        Status::Ok);

    // Wait (bounded) until all replies have been delivered to sinks.
    const auto deadline = std::chrono::steady_clock::now()
                          + std::chrono::seconds(30);
    while (serve::serverStats(server).executed < kRequests + 1
           && std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_EQ(serve::serverStats(server).executed,
              static_cast<std::uint64_t>(kRequests) + 1);

    // The transport buffered one reply and dropped the rest — the
    // slow consumer's problem stayed the slow consumer's problem.
    EXPECT_EQ(slow.pendingReplies(), 1u);
    EXPECT_EQ(slow.dropped(), static_cast<std::uint64_t>(kRequests - 1));
    Response buffered;
    EXPECT_TRUE(slow.receive(buffered));
    EXPECT_EQ(buffered.status, Status::Ok);

    // A consumer that reads a little, then falls behind. receive()
    // takes every queued reply at once; the ones it has taken but not
    // yet read still fill the inbox, so drops start at exactly the
    // capacity. The single worker answers in submission order, so a
    // healthy call's reply means every earlier sink has fired.
    constexpr std::size_t kCapacity = 4;
    LoopbackClient lagging(server, kCapacity);
    std::uint64_t nextId = 100;
    const auto sendSome = [&](std::size_t count) {
        for (std::size_t i = 0; i < count; ++i) {
            Request request =
                serveChainRequest(Opcode::ExpectedValue, 10, nextId++);
            request.sampleCount = 64;
            lagging.send(request);
        }
        EXPECT_EQ(healthy.call(serveChainRequest(Opcode::Pr, 9, nextId++))
                      .status,
                  Status::Ok);
    };
    sendSome(kCapacity);
    EXPECT_EQ(lagging.pendingReplies(), kCapacity);
    EXPECT_EQ(lagging.dropped(), 0u);
    Response first;
    ASSERT_TRUE(lagging.receive(first));
    EXPECT_EQ(first.requestId, 100u);
    EXPECT_EQ(lagging.pendingReplies(), kCapacity - 1);

    // Room for exactly one more: of three replies, two are dropped.
    sendSome(3);
    EXPECT_EQ(lagging.pendingReplies(), kCapacity);
    EXPECT_EQ(lagging.dropped(), 2u);
    // What was kept arrives in order: the three taken, then the one
    // that fit.
    for (const std::uint64_t id : {101u, 102u, 103u, 105u}) {
        Response reply;
        ASSERT_TRUE(lagging.receive(reply));
        EXPECT_EQ(reply.requestId, id);
        EXPECT_EQ(reply.status, Status::Ok);
    }
    EXPECT_EQ(lagging.pendingReplies(), 0u);
}

TEST(ServeFault, BatchWindowBoundsALoneRequestsLatency)
{
    // With a large maxBatch a lone request must still be answered
    // after at most one batch window — coalescing never waits for a
    // batch to fill.
    ServerOptions options;
    options.seed = sweptServerSeed(43);
    options.maxBatch = 64;
    options.batchWindowMicros = 2000;
    UncertainServer server(options);
    server.start();
    LoopbackClient client(server);

    const Response reply =
        client.call(serveChainRequest(Opcode::Pr, 1, 1),
                    std::chrono::milliseconds(30000));
    EXPECT_EQ(reply.status, Status::Ok);
    const serve::ServerStats stats = serve::serverStats(server);
    EXPECT_EQ(stats.batches, 1u);
    EXPECT_EQ(stats.batchOccupancyMax, 1u);
    EXPECT_EQ(stats.coalescedRequests, 0u);
}

TEST(ServeFault, StoppedServerRefusesWithShuttingDown)
{
    UncertainServer server;
    server.start();
    LoopbackClient client(server);
    EXPECT_EQ(client.call(serveChainRequest(Opcode::Pr, 1, 1)).status,
              Status::Ok);

    server.stop();
    Response refused;
    client.send(serveChainRequest(Opcode::Pr, 1, 2));
    ASSERT_TRUE(client.receive(refused));
    EXPECT_EQ(refused.status, Status::ShuttingDown);
    EXPECT_GE(serve::serverStats(server).shuttingDown, 1u);
}

// ---------------------------------------------------------------------
// TCP transport faults. Binding a localhost socket can be forbidden
// in sandboxes; those tests skip rather than fail there.
// ---------------------------------------------------------------------

std::unique_ptr<serve::TcpTransport>
tryBind(UncertainServer& server)
{
    try {
        return std::make_unique<serve::TcpTransport>(server);
    } catch (const Error&) {
        return nullptr;
    }
}

TEST(ServeFault, TcpRoundTripAndDisconnectMidFlight)
{
    UncertainServer server;
    server.start();
    auto transport = tryBind(server);
    if (!transport)
        GTEST_SKIP() << "cannot bind a localhost socket here";

    {
        serve::TcpClient client(transport->port());
        const Response reply =
            client.call(serveChainRequest(Opcode::Pr, 1, 1));
        EXPECT_EQ(reply.status, Status::Ok);
        EXPECT_EQ(reply.tenantId, 1u);

        // Disconnect with a request still in flight: the reply is
        // dropped by the transport, never by the server core.
        Request inflight =
            serveChainRequest(Opcode::ExpectedValue, 1, 2);
        inflight.sampleCount = 2000;
        client.send(inflight);
        client.closeAbruptly();
    }

    // The server keeps serving new connections.
    serve::TcpClient fresh(transport->port());
    EXPECT_EQ(fresh.call(serveChainRequest(Opcode::Pr, 2, 1)).status,
              Status::Ok);
    EXPECT_GE(transport->connectionsAccepted(), 2u);
    transport->stop();
}

TEST(ServeFault, TcpOversizedFrameIsRefusedAndConnectionClosed)
{
    UncertainServer server;
    server.start();
    auto transport = tryBind(server);
    if (!transport)
        GTEST_SKIP() << "cannot bind a localhost socket here";

    serve::TcpClient abusive(transport->port());
    // A length prefix claiming more than the cap: answered TooLarge,
    // then the connection is closed (the offset is untrustworthy).
    const std::uint32_t length =
        static_cast<std::uint32_t>(serve::kMaxRequestFrameBytes) + 1;
    const std::uint8_t prefix[4] = {
        static_cast<std::uint8_t>(length & 0xff),
        static_cast<std::uint8_t>((length >> 8) & 0xff),
        static_cast<std::uint8_t>((length >> 16) & 0xff),
        static_cast<std::uint8_t>((length >> 24) & 0xff)};
    abusive.sendBytes(prefix, sizeof prefix);
    Response reply;
    ASSERT_TRUE(abusive.receive(reply));
    EXPECT_EQ(reply.status, Status::TooLarge);

    // Other clients are unaffected.
    serve::TcpClient polite(transport->port());
    EXPECT_EQ(polite.call(serveChainRequest(Opcode::Pr, 1, 1)).status,
              Status::Ok);
    transport->stop();
}

} // namespace
} // namespace uncertain
