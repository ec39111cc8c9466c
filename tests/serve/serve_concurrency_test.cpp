/**
 * @file
 * Concurrency stress for the serving layer, run under TSan in CI
 * (suite ServeThreading is in the sanitizer filter): sixteen loopback
 * clients across multiple tenants against a multi-worker server, with
 * the concurrent replies checked bit-for-bit against a quiet
 * single-worker replay — arrival interleaving and worker scheduling
 * must never leak into results. A second test checks that the
 * counters, which the server keeps per worker and merges on read,
 * add up exactly under concurrent accepted and refused traffic,
 * multi-block ExpectedValue queries on the shared block scheduler
 * among them. A
 * third hammers submit() while the server stops and insists every
 * request is answered.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "serve/serve.hpp"
#include "serve_test_util.hpp"
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
using testing::sweptServerSeed;

/** The mixed per-client workload: tenants alternate between two
 *  chain parameterizations and cycle the read opcodes. */
Request
stressRequest(std::uint64_t tenant, std::uint64_t id)
{
    const double mu = (tenant % 2 == 0) ? 0.0 : 2.0;
    const double depth = (tenant % 2 == 0) ? 8.0 : 16.0;
    Request request = serveChainRequest(
        Opcode::Pr, tenant, id, mu, 1.0, depth, mu + 1.0);
    switch (id % 3) {
      case 0:
        break;
      case 1:
        request.opcode = Opcode::ExpectedValue;
        request.sampleCount = 200;
        break;
      default:
        request.opcode = Opcode::TakeSamples;
        request.sampleCount = 32;
        break;
    }
    return request;
}

TEST(ServeThreading, SixteenClientsMatchSingleThreadedReplay)
{
    ServerOptions options;
    options.seed = sweptServerSeed(51);
    options.workers = 2;
    options.maxBatch = 8;
    options.batchWindowMicros = 500;
    UncertainServer server(options);
    server.start();

    constexpr std::uint64_t kClients = 16;
    constexpr std::uint64_t kRequestsPerClient = 12;

    std::vector<std::vector<Response>> replies(kClients);
    std::atomic<std::uint64_t> failures{0};
    {
        std::vector<std::thread> clients;
        clients.reserve(kClients);
        for (std::uint64_t t = 0; t < kClients; ++t) {
            clients.emplace_back([&, t] {
                LoopbackClient client(server);
                for (std::uint64_t id = 0; id < kRequestsPerClient;
                     ++id) {
                    Response response;
                    client.send(stressRequest(t, id));
                    if (!client.receive(response)
                        || response.status != Status::Ok) {
                        ++failures;
                        continue;
                    }
                    replies[t].push_back(response);
                }
            });
        }
        for (std::thread& client : clients)
            client.join();
    }
    ASSERT_EQ(failures.load(), 0u);

    // Quiet replay: one worker, no contention, same seed. Every
    // stressed reply must reproduce bit for bit.
    ServerOptions quiet = options;
    quiet.workers = 1;
    UncertainServer replayServer(quiet);
    replayServer.start();
    LoopbackClient replayClient(replayServer);
    for (std::uint64_t t = 0; t < kClients; ++t) {
        ASSERT_EQ(replies[t].size(), kRequestsPerClient);
        for (std::uint64_t id = 0; id < kRequestsPerClient; ++id) {
            SCOPED_TRACE(::testing::Message()
                         << "tenant " << t << " request " << id);
            expectIdenticalReplies(
                replies[t][id],
                replayClient.call(stressRequest(t, id)));
        }
    }

    // The books balance across the stress run.
    const serve::ServerStats stats = serve::serverStats(server);
    EXPECT_EQ(stats.received, kClients * kRequestsPerClient);
    EXPECT_EQ(stats.executed, kClients * kRequestsPerClient);
    std::uint64_t perTenantExecuted = 0;
    for (const auto& [tenant, slice] : stats.tenants)
        perTenantExecuted += slice.executed;
    EXPECT_EQ(perTenantExecuted, stats.executed);
    EXPECT_EQ(stats.latencySamples, stats.executed);
}

/** How a request of the counter test is answered. */
enum class Fate
{
    Pr,
    ExpectedValue,
    TakeSamples,
    Advise,
    BlockExpectedValue, //!< spans blocks: runs on the shared scheduler
    BadThreshold, //!< refused at submit
    UnknownModel, //!< refused at submit
    BadParams,    //!< admitted, refused by the worker's builder
    Truncated,    //!< undecodable frame, ids still recoverable
    Count
};

TEST(ServeThreading, MergedCountersAreExactUnderConcurrency)
{
    ServerOptions options;
    options.seed = sweptServerSeed(53);
    options.workers = 2;
    options.maxBatch = 8;
    options.batchWindowMicros = 300;
    UncertainServer server(options);
    server.start();

    constexpr std::uint64_t kClients = 16;
    constexpr std::uint64_t kRounds = 3;
    constexpr std::uint64_t kFates = static_cast<std::uint64_t>(Fate::Count);
    constexpr std::uint64_t kPerClient = kRounds * kFates;

    std::vector<std::uint64_t> samplesUsed(kClients, 0);
    std::atomic<std::uint64_t> wrongStatus{0};
    std::atomic<std::uint64_t> uncountedInSink{0};
    {
        std::vector<std::thread> clients;
        for (std::uint64_t c = 0; c < kClients; ++c) {
            clients.emplace_back([&, c] {
                const std::uint64_t tenant = 100 + c;
                for (std::uint64_t id = 0; id < kPerClient; ++id) {
                    const auto fate = static_cast<Fate>(id % kFates);
                    Request request = stressRequest(tenant, id);
                    request.sampleCount = 64;
                    switch (fate) {
                      case Fate::Pr: request.opcode = Opcode::Pr; break;
                      case Fate::ExpectedValue:
                        request.opcode = Opcode::ExpectedValue;
                        break;
                      case Fate::TakeSamples:
                        request.opcode = Opcode::TakeSamples;
                        break;
                      case Fate::Advise:
                        request.opcode = Opcode::Advise;
                        break;
                      case Fate::BlockExpectedValue:
                        request.opcode = Opcode::ExpectedValue;
                        request.sampleCount =
                            2 * options.batch.blockSize + 17;
                        break;
                      case Fate::BadThreshold:
                        request.opcode = Opcode::Pr;
                        request.threshold = 1.5;
                        break;
                      case Fate::UnknownModel:
                        request.modelId = 777;
                        break;
                      case Fate::BadParams:
                        request.params[1] = -1.0; // sigma <= 0
                        break;
                      default: break;
                    }
                    std::vector<std::uint8_t> frame =
                        serve::encodeRequest(request);
                    if (fate == Fate::Truncated)
                        frame.resize(frame.size() - 5);

                    // This client alone uses its tenant, and it waits
                    // for each reply before sending the next: when the
                    // sink fires, the tenant's books must already hold
                    // exactly the replies so far, this one included.
                    // The sink shares the promise, which set_value may
                    // still touch after the client has the reply.
                    auto replied = std::make_shared<std::promise<Response>>();
                    std::future<Response> reply = replied->get_future();
                    server.submitFrame(
                        frame.data() + 4, frame.size() - 4,
                        [&, replied, tenant, id](const Response& response) {
                            const serve::ServerStats stats =
                                serve::serverStats(server);
                            const auto it = stats.tenants.find(tenant);
                            if (it == stats.tenants.end()
                                || it->second.executed
                                           + it->second.rejected
                                       != id + 1) {
                                ++uncountedInSink;
                            }
                            replied->set_value(response);
                        });
                    const Response response = reply.get();
                    const bool ok = fate < Fate::BadThreshold;
                    const Status expected =
                        ok ? Status::Ok
                        : fate == Fate::UnknownModel ? Status::UnknownModel
                        : fate == Fate::Truncated    ? Status::Malformed
                                                     : Status::BadRequest;
                    if (response.status != expected
                        || response.tenantId != tenant
                        || response.requestId != id) {
                        ++wrongStatus;
                    }
                    if (ok)
                        samplesUsed[c] += response.samplesUsed;
                }
            });
        }
        for (std::thread& client : clients)
            client.join();
    }
    EXPECT_EQ(wrongStatus.load(), 0u);
    EXPECT_EQ(uncountedInSink.load(), 0u);

    const serve::ServerStats stats = serve::serverStats(server);
    const std::uint64_t each = kClients * kRounds; // requests per fate
    EXPECT_EQ(stats.received, kClients * kPerClient);
    // Everything that decodes and passes submit's checks is admitted.
    EXPECT_EQ(stats.admitted, 6 * each);
    EXPECT_EQ(stats.executed, 5 * each);
    EXPECT_EQ(stats.prQueries, each);
    EXPECT_EQ(stats.expectedValueQueries, 2 * each);
    EXPECT_EQ(stats.takeSamplesQueries, each);
    EXPECT_EQ(stats.adviseQueries, each);
    EXPECT_EQ(stats.badRequest, 2 * each);
    EXPECT_EQ(stats.unknownModel, each);
    EXPECT_EQ(stats.malformed, each);
    EXPECT_EQ(stats.rejectedOverload, 0u);
    EXPECT_EQ(stats.shuttingDown, 0u);
    EXPECT_EQ(stats.latencySamples, stats.executed);
    EXPECT_LE(stats.queuePeak, kClients);
    EXPECT_LE(stats.batchOccupancyMax, options.maxBatch);

    std::uint64_t totalSamples = 0;
    ASSERT_EQ(stats.tenants.size(), kClients);
    for (std::uint64_t c = 0; c < kClients; ++c) {
        SCOPED_TRACE(::testing::Message() << "client " << c);
        const serve::TenantStats& tenant = stats.tenants.at(100 + c);
        EXPECT_EQ(tenant.received, kPerClient);
        EXPECT_EQ(tenant.executed, 5 * kRounds);
        EXPECT_EQ(tenant.rejected, 4 * kRounds);
        EXPECT_EQ(tenant.samplesUsed, samplesUsed[c]);
        totalSamples += samplesUsed[c];
    }
    EXPECT_EQ(stats.samplesDrawn, totalSamples);
}

TEST(ServeThreading, StopUnderLoadAnswersEverySubmit)
{
    ServerOptions options;
    options.seed = sweptServerSeed(52);
    options.workers = 2;
    options.batchWindowMicros = 200;
    UncertainServer server(options);
    server.start();

    constexpr std::uint64_t kClients = 8;
    constexpr std::uint64_t kRequestsPerClient = 25;

    std::vector<std::unique_ptr<LoopbackClient>> clients;
    for (std::uint64_t t = 0; t < kClients; ++t)
        clients.push_back(std::make_unique<LoopbackClient>(server));

    {
        std::vector<std::thread> senders;
        for (std::uint64_t t = 0; t < kClients; ++t) {
            senders.emplace_back([&, t] {
                for (std::uint64_t id = 0; id < kRequestsPerClient;
                     ++id)
                    clients[t]->send(stressRequest(t, id));
            });
        }
        // Stop while the senders are still pushing: some requests
        // execute, the rest must be refused — never dropped.
        server.stop();
        for (std::thread& sender : senders)
            sender.join();
    }

    std::uint64_t okReplies = 0;
    std::uint64_t refusedReplies = 0;
    for (std::uint64_t t = 0; t < kClients; ++t) {
        for (std::uint64_t id = 0; id < kRequestsPerClient; ++id) {
            Response response;
            ASSERT_TRUE(clients[t]->receive(
                response, std::chrono::milliseconds(30000)))
                << "tenant " << t << " lost a reply";
            if (response.status == Status::Ok)
                ++okReplies;
            else {
                EXPECT_EQ(response.status, Status::ShuttingDown);
                ++refusedReplies;
            }
        }
    }
    EXPECT_EQ(okReplies + refusedReplies,
              kClients * kRequestsPerClient);
    const serve::ServerStats stats = serve::serverStats(server);
    EXPECT_EQ(stats.received, kClients * kRequestsPerClient);
    EXPECT_EQ(stats.executed, okReplies);
    EXPECT_EQ(stats.shuttingDown, refusedReplies);
}

} // namespace
} // namespace uncertain
