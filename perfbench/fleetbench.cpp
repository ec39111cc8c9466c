/**
 * @file
 * Phone-fleet serving benchmark: one in-process UncertainServer, one
 * load-generating process, three workloads.
 *
 *   fleet_shared  closed loop, 32 virtual phones with one request each
 *                 outstanding, 7:1 Pr:Advise against one chain model
 *                 and one shared fix geometry (cache-hot serving path)
 *   fleet_fresh   closed loop, 4 phones, Advise requests each with its
 *                 own fix pair (model build + SIR + compile per request)
 *   bulk_draws    closed loop, 4 outstanding, alternating
 *                 TakeSamples(8192) and ExpectedValue(262144) on a
 *                 depth-64 chain (leaf fills, strips, large replies)
 *
 * Every loop runs from one generator thread; the server runs 2 workers,
 * one request per batch except on fleet_shared.
 *
 * Usage: fleetbench --workload NAME --seed N --seconds S --trace 0|1
 *
 * Latency is timed on the client, per request, from send to the
 * decoded reply. Every request sent ends as exactly one of: Ok, refused
 * by status, or timed out; a failed request counts as missing every
 * latency limit. A seeded sample of replies is replayed through a
 * reference server (workers=1, maxBatch=1, sharePlans=false) and must
 * match bit for bit.
 *
 * --trace 0 prints the end-to-end metrics. --trace 1 runs half the time
 * untraced and half through a client that timestamps each layer
 * boundary, then replays a sample single-threaded (replay.cpp) and
 * prints the per-layer metrics and a per-request table whose rows add
 * up to the measured client round trip. The last stdout line is one
 * JSON object: {"correct", "attempted", "failed", "metrics"}.
 */

#include "fleetbench.hpp"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <deque>
#include <limits>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/jit/jit_compiler.hpp"
#include "core/simd_kernels.hpp"

namespace perfbench {

std::uint64_t
mix64(std::uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

namespace {

/** How long a client waits for a reply before counting it timed out. */
constexpr std::chrono::milliseconds kReplyTimeout{5000};
constexpr double kTimeoutUs =
    std::chrono::duration<double, std::micro>(kReplyTimeout).count();

/** Server set-ups per untraced run; setup_s is their median. */
constexpr std::size_t kSetupReps = 31;

/** Model parameters (see serve/server.hpp for their layout). */
const std::vector<double> kSharedChain = {3.5, 1.5, 8.0, 4.0};
const std::vector<double> kSharedFixPair = {47.6, -122.3, 30.0,
                                            0.7,  6.0,    3.0};
const std::vector<double> kBulkChain = {3.5, 1.5, kBulkDepth, 4.0};

double
unit(std::uint64_t bits)
{
    return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

double
microsBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double, std::micro>(to - from).count();
}

double
nanosBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double, std::nano>(to - from).count();
}

serve::Request
makeRequest(serve::Opcode opcode, std::uint64_t tenant, std::uint64_t id,
            std::uint32_t modelId, std::vector<double> params,
            std::uint32_t sampleCount = 0)
{
    serve::Request request;
    request.opcode = opcode;
    request.tenantId = tenant;
    request.requestId = id;
    request.modelId = modelId;
    request.sampleCount = sampleCount;
    request.threshold = 0.5;
    request.params = std::move(params);
    return request;
}

} // namespace

// ---------------------------------------------------------------------
// Workload inputs
// ---------------------------------------------------------------------

Generator::Generator(Workload workload, std::uint64_t seed)
    : workload_(workload),
      seed_(seed),
      tenantBase_(1 + (mix64(seed ^ 0x74656e616e74ULL) % 1000000) * 64)
{}

std::size_t
Generator::phones() const
{
    switch (workload_) {
      case Workload::FleetShared: return kSharedPhones;
      case Workload::FleetFresh: return kFreshPhones;
      case Workload::BulkDraws: return kBulkPhones;
    }
    return 0;
}

serve::Request
Generator::request(std::size_t phone, std::uint64_t k) const
{
    const std::uint64_t tenant = tenantOf(phone);
    if (workload_ == Workload::FleetFresh) {
        return makeRequest(serve::Opcode::Advise, tenant, k,
                           serve::kModelGpsSpeed,
                           freshFixPair(k * kFreshPhones + phone));
    }
    if (workload_ == Workload::BulkDraws) {
        return (k + phone) % 2 == 0
                   ? makeRequest(serve::Opcode::TakeSamples, tenant, k,
                                 serve::kModelGaussianChain, kBulkChain,
                                 kBulkTake)
                   : makeRequest(serve::Opcode::ExpectedValue, tenant, k,
                                 serve::kModelGaussianChain, kBulkChain,
                                 kBulkExpect);
    }
    // Each phone starts at its own seeded place in the 7:1 cycle.
    const std::uint64_t phase = mix64(seed_ ^ tenant) % kAdviseEvery;
    if ((k + phase) % kAdviseEvery == kAdviseEvery - 1) {
        return makeRequest(serve::Opcode::Advise, tenant, k,
                           serve::kModelGpsSpeed, kSharedFixPair);
    }
    return makeRequest(serve::Opcode::Pr, tenant, k,
                       serve::kModelGaussianChain, kSharedChain);
}

std::vector<double>
Generator::freshFixPair(std::uint64_t index) const
{
    // A walker near Seattle: fix error 4-12 m (95%), 2-5 s apart,
    // walking 0.5-2.5 m/s on a random bearing.
    std::uint64_t state = mix64(seed_ ^ mix64(index ^ 0x6669786573ULL));
    const auto next = [&state] {
        state = mix64(state + 0x9e3779b97f4a7c15ULL);
        return unit(state);
    };
    const double lat = 47.5 + 0.2 * next();
    const double lon = -122.4 + 0.2 * next();
    const double eps = 4.0 + 8.0 * next();
    const double bearing = 6.283185307179586 * next();
    const double dt = 2.0 + 3.0 * next();
    const double distance = (0.5 + 2.0 * next()) * dt;
    return {lat, lon, eps, bearing, distance, dt};
}

std::vector<serve::Request>
Generator::warm(std::uint64_t rep) const
{
    const std::uint64_t id = rep * 4;
    switch (workload_) {
      case Workload::FleetShared:
        return {makeRequest(serve::Opcode::Pr, 0, id,
                            serve::kModelGaussianChain, kSharedChain),
                makeRequest(serve::Opcode::Advise, 0, id + 1,
                            serve::kModelGpsSpeed, kSharedFixPair)};
      case Workload::FleetFresh:
        return {makeRequest(serve::Opcode::Advise, 0, id,
                            serve::kModelGpsSpeed,
                            freshFixPair(~std::uint64_t{0}))};
      case Workload::BulkDraws:
        return {makeRequest(serve::Opcode::TakeSamples, 0, id,
                            serve::kModelGaussianChain, kBulkChain,
                            kBulkTake),
                makeRequest(serve::Opcode::ExpectedValue, 0, id + 1,
                            serve::kModelGaussianChain, kBulkChain,
                            kBulkTake)};
    }
    return {};
}

bool
Generator::sampled(std::uint64_t tenant, std::uint64_t requestId,
                   std::uint64_t period) const
{
    return mix64(seed_ ^ mix64(tenant ^ mix64(requestId))) % period == 0;
}

serve::ServerOptions
loadOptions(Workload workload)
{
    serve::ServerOptions options;
    options.workers = 2;
    // Requests of fleet_fresh never share a model instance, and
    // bulk_draws wants both workers busy: one request per batch keeps
    // every worker on its own request instead of one worker running a
    // batch of them while the other waits for the next arrival.
    if (workload != Workload::FleetShared)
        options.maxBatch = 1;
    return options;
}

serve::ServerOptions
referenceOptions()
{
    serve::ServerOptions options;
    options.workers = 1;
    options.maxBatch = 1;
    options.sharePlans = false;
    return options;
}

namespace {

// ---------------------------------------------------------------------
// Clients
// ---------------------------------------------------------------------

struct SendStamp
{
    Clock::time_point start{};     //!< client begins the send
    Clock::time_point submitted{}; //!< request handed to the server
    double codecNs = 0.0;          //!< encode + decode of the request
};

struct ReceiveStamp
{
    Clock::time_point fired{};    //!< the server's reply sink ran
    Clock::time_point received{}; //!< client holds the decoded reply
    double codecNs = 0.0;         //!< encode + decode of the reply
};

/** The serving layer's own loopback transport, untouched. */
class PlainClient
{
  public:
    static constexpr bool kTraced = false;

    explicit PlainClient(serve::UncertainServer& server) : client_(server) {}

    void
    send(const serve::Request& request, SendStamp& stamp)
    {
        stamp.start = Clock::now();
        client_.send(request);
    }

    bool
    receive(serve::Response& out, ReceiveStamp& stamp)
    {
        const bool ok = client_.receive(out, kReplyTimeout);
        stamp.received = Clock::now();
        return ok;
    }

  private:
    serve::LoopbackClient client_;
};

/**
 * LoopbackClient's path with a timestamp at every layer boundary: the
 * benchmark calls the codec and UncertainServer::submit itself (what
 * LoopbackClient::send and submitFrame do), and its reply sink notes
 * when the server fired it before encoding the reply.
 */
class TracedClient
{
  public:
    static constexpr bool kTraced = true;

    explicit TracedClient(serve::UncertainServer& server)
        : server_(&server), inbox_(std::make_shared<Inbox>())
    {}

    void
    send(const serve::Request& request, SendStamp& stamp)
    {
        stamp.start = Clock::now();
        const auto frame = serve::encodeRequest(request);
        serve::Request decoded;
        if (serve::decodeRequest(frame.data() + 4, frame.size() - 4,
                                 decoded)
            != serve::Status::Ok)
            throw std::runtime_error("request frame failed to decode");
        stamp.submitted = Clock::now();
        stamp.codecNs = nanosBetween(stamp.start, stamp.submitted);
        std::shared_ptr<Inbox> inbox = inbox_;
        server_->submit(std::move(decoded),
                        [inbox](const serve::Response& response) {
            Frame reply;
            reply.fired = Clock::now();
            reply.bytes = serve::encodeResponse(response);
            reply.encodeNs = nanosBetween(reply.fired, Clock::now());
            std::lock_guard<std::mutex> lock(inbox->mutex);
            inbox->frames.push_back(std::move(reply));
            inbox->cv.notify_one();
        });
    }

    bool
    receive(serve::Response& out, ReceiveStamp& stamp)
    {
        Frame reply;
        {
            std::unique_lock<std::mutex> lock(inbox_->mutex);
            if (!inbox_->cv.wait_for(lock, kReplyTimeout, [this] {
                    return !inbox_->frames.empty();
                })) {
                stamp.received = Clock::now();
                return false;
            }
            reply = std::move(inbox_->frames.front());
            inbox_->frames.pop_front();
        }
        const auto popped = Clock::now();
        const bool ok =
            reply.bytes.size() >= 4
            && serve::decodeResponse(reply.bytes.data() + 4,
                                     reply.bytes.size() - 4, out);
        stamp.received = Clock::now();
        stamp.fired = reply.fired;
        stamp.codecNs =
            reply.encodeNs + nanosBetween(popped, stamp.received);
        return ok;
    }

  private:
    struct Frame
    {
        std::vector<std::uint8_t> bytes;
        Clock::time_point fired{};
        double encodeNs = 0.0;
    };

    struct Inbox
    {
        std::mutex mutex;
        std::condition_variable cv;
        std::deque<Frame> frames;
    };

    serve::UncertainServer* server_;
    std::shared_ptr<Inbox> inbox_;
};

// ---------------------------------------------------------------------
// Load phases and their accounting
// ---------------------------------------------------------------------

/** A sampled request and its reply frame, for the reference check. */
struct Check
{
    serve::Request request;
    std::vector<std::uint8_t> reply;
};

struct LoadStats
{
    std::vector<float> latencyUs; //!< one per request sent; inf if failed
    std::uint64_t ok = 0;
    std::uint64_t refused = 0;
    std::uint64_t timedOut = 0;
    std::uint64_t prCount = 0;
    std::uint64_t prSamples = 0;
    std::uint64_t adviseCount = 0;
    std::uint64_t adviseSamples = 0;
    double samples = 0.0;          //!< root draws the Ok replies delivered
    Clock::time_point firstSend{};
    Clock::time_point lastReply{}; //!< latest Ok reply decoded
    double roundTripSumUs = 0.0;   //!< send -> decoded reply, Ok replies

    // Traced client only.
    std::vector<double> residenceUs;
    double requestCodecSumNs = 0.0;
    double replyCodecSumNs = 0.0;

    std::vector<Check> checks;
    std::string error; //!< first reply that failed validation

    std::uint64_t sent() const { return latencyUs.size(); }
    std::uint64_t failed() const { return refused + timedOut; }

    void
    fail()
    {
        latencyUs.push_back(std::numeric_limits<float>::infinity());
    }
};

/** Replies sampled for the reference check: one in `period`, at most
 *  `cap` per phase. */
struct CheckPolicy
{
    std::uint64_t period;
    std::size_t cap;
};

CheckPolicy
checkPolicy(Workload workload)
{
    switch (workload) {
      case Workload::FleetShared: return {1024, 128};
      case Workload::FleetFresh: return {8, 48};
      case Workload::BulkDraws: return {8, 24};
    }
    return {1, 1};
}

/** Within 6 standard errors of the chain's analytic mean. */
bool
nearChainMean(const serve::Request& request, double mean, std::size_t n)
{
    const double expected = request.params[0]
                            + request.params[2] * serve::kGaussianChainStep;
    const double tolerance =
        6.0 * request.params[1] / std::sqrt(static_cast<double>(n));
    return std::fabs(mean - expected) <= tolerance;
}

/** Checks every Ok reply can afford; empty when the reply is sound. */
std::string
validate(const serve::Request& request, const serve::Response& response)
{
    if (response.opcode != request.opcode
        || response.tenantId != request.tenantId
        || response.requestId != request.requestId)
        return "reply does not echo its request";
    if (!std::isfinite(response.value))
        return "reply value is not finite";
    switch (request.opcode) {
      case serve::Opcode::Pr:
      case serve::Opcode::Advise:
        if (response.decision > 2 || response.samplesUsed == 0
            || response.value < 0.0 || response.value > 1.0)
            return "conditional reply out of range";
        break;
      case serve::Opcode::TakeSamples:
        if (response.samples.size() != request.sampleCount
            || response.samplesUsed != request.sampleCount
            || !nearChainMean(request, response.value,
                              request.sampleCount))
            return "TakeSamples reply has the wrong size or mean";
        break;
      case serve::Opcode::ExpectedValue:
        if (response.samplesUsed != request.sampleCount
            || !nearChainMean(request, response.value,
                              request.sampleCount))
            return "ExpectedValue reply is off the analytic mean";
        break;
    }
    return {};
}

/** Book one reply against the request it answers. */
template <class Client>
void
account(const Generator& generator, const serve::Request& request,
        const serve::Response& response, const SendStamp& sent,
        const ReceiveStamp& received, LoadStats& stats)
{
    if (response.status != serve::Status::Ok) {
        ++stats.refused;
        stats.fail();
        return;
    }
    if (const std::string why = validate(request, response);
        !why.empty() && stats.error.empty()) {
        stats.error = why + " (tenant " + std::to_string(request.tenantId)
                      + ", request " + std::to_string(request.requestId)
                      + ")";
    }
    ++stats.ok;
    const double latencyUs = microsBetween(sent.start, received.received);
    stats.latencyUs.push_back(static_cast<float>(latencyUs));
    stats.lastReply = std::max(stats.lastReply, received.received);
    stats.samples += static_cast<double>(response.samplesUsed);
    stats.roundTripSumUs += latencyUs;
    if (request.opcode == serve::Opcode::Pr) {
        ++stats.prCount;
        stats.prSamples += response.samplesUsed;
    } else if (request.opcode == serve::Opcode::Advise) {
        ++stats.adviseCount;
        stats.adviseSamples += response.samplesUsed;
    }
    if constexpr (Client::kTraced) {
        stats.residenceUs.push_back(
            microsBetween(sent.submitted, received.fired));
        stats.requestCodecSumNs += sent.codecNs;
        stats.replyCodecSumNs += received.codecNs;
    }
    const CheckPolicy policy = checkPolicy(generator.workload());
    if (stats.checks.size() < policy.cap
        && generator.sampled(request.tenantId, request.requestId,
                             policy.period)) {
        stats.checks.push_back({request, serve::encodeResponse(response)});
    }
}

/**
 * Closed loop from one generator thread: every phone keeps one request
 * outstanding; a reply, matched to its phone by (tenantId, requestId),
 * releases that phone's next request until the window closes.
 */
template <class Client>
LoadStats
runClosed(Client& client, const Generator& generator,
          std::vector<std::uint64_t>& nextK, double seconds)
{
    LoadStats stats;
    struct InFlight
    {
        serve::Request request;
        SendStamp stamp;
        bool active = false;
    };
    const std::size_t phones = generator.phones();
    std::vector<InFlight> flight(phones);
    const auto issue = [&](std::size_t phone) {
        flight[phone].request = generator.request(phone, nextK[phone]++);
        flight[phone].active = true;
        client.send(flight[phone].request, flight[phone].stamp);
    };

    stats.firstSend = Clock::now();
    const auto end =
        stats.firstSend + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(seconds));
    for (std::size_t phone = 0; phone < phones; ++phone)
        issue(phone);
    std::size_t active = phones;
    while (active > 0) {
        serve::Response response;
        ReceiveStamp stamp;
        if (!client.receive(response, stamp))
            break; // the phones still in flight time out below
        const std::uint64_t phone =
            response.tenantId - generator.tenantOf(0);
        if (phone >= phones || !flight[phone].active
            || flight[phone].request.requestId != response.requestId) {
            if (stats.error.empty())
                stats.error = "reply matches no request in flight";
            continue;
        }
        InFlight& slot = flight[phone];
        account<Client>(generator, slot.request, response, slot.stamp,
                        stamp, stats);
        if (stamp.received < end) {
            issue(phone);
        } else {
            slot.active = false;
            --active;
        }
    }
    for (const InFlight& slot : flight) {
        if (slot.active) {
            ++stats.timedOut;
            stats.fail();
        }
    }
    return stats;
}

// ---------------------------------------------------------------------
// Set-up, reference check, reporting
// ---------------------------------------------------------------------

/** Start a server and warm it: instance builds and first compiles.
 *  Returns the seconds it took; throws if a warm request fails. */
double
setUp(const Generator& generator, std::uint64_t rep,
      std::unique_ptr<serve::UncertainServer>& server)
{
    server.reset();
    const auto t0 = Clock::now();
    auto fresh = std::make_unique<serve::UncertainServer>(
        loadOptions(generator.workload()));
    fresh->start();
    {
        serve::LoopbackClient client(*fresh);
        for (const serve::Request& request : generator.warm(rep)) {
            const serve::Response response =
                client.call(request, kReplyTimeout);
            if (response.status != serve::Status::Ok)
                throw std::runtime_error("warm-up request refused");
        }
    }
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - t0).count();
    server = std::move(fresh);
    return elapsed;
}

/** Replay @p checks through the reference server; empty on success. */
std::string
checkAgainstReference(const std::vector<Check>& checks)
{
    serve::UncertainServer reference(referenceOptions());
    reference.start();
    serve::LoopbackClient client(reference);
    for (const Check& check : checks) {
        serve::Response expected;
        client.send(check.request);
        if (!client.receive(expected, kReplyTimeout))
            return "reference server did not answer";
        if (serve::encodeResponse(expected) != check.reply) {
            return "reply to tenant "
                   + std::to_string(check.request.tenantId) + " request "
                   + std::to_string(check.request.requestId)
                   + " differs from the reference server";
        }
    }
    return {};
}

/** Nearest-rank quantile; a failed request (inf) reads as the reply
 *  timeout. */
template <typename T>
double
quantile(std::vector<T> values, double q)
{
    if (values.empty())
        return 0.0;
    const std::size_t rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(values.size())));
    const std::size_t index = std::min(values.size() - 1,
                                       rank > 0 ? rank - 1 : 0);
    std::nth_element(values.begin(), values.begin() + index, values.end());
    return std::isfinite(values[index]) ? values[index] : kTimeoutUs;
}

double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

double
ratio(double numerator, double denominator)
{
    return denominator > 0.0 ? numerator / denominator : 0.0;
}

struct Metric
{
    std::string name;
    double value;
    const char* unit;
};

void
printResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
            const std::vector<Metric>& metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric& m = metrics[i];
        std::printf("%s\"%s\": {\"value\": ", i == 0 ? "" : ", ",
                    m.name.c_str());
        if (std::isfinite(m.value))
            std::printf("%.17g", m.value);
        else
            std::printf("null");
        std::printf(", \"unit\": \"%s\"}", m.unit);
    }
    std::printf("}}\n");
}

void
printRequests(const char* label, const LoadStats& stats)
{
    const std::vector<float>& latency = stats.latencyUs;
    std::printf("# %s: sent %llu ok %llu refused %llu timed_out %llu "
                "fail_frac %.6g\n",
                label, static_cast<unsigned long long>(stats.sent()),
                static_cast<unsigned long long>(stats.ok),
                static_cast<unsigned long long>(stats.refused),
                static_cast<unsigned long long>(stats.timedOut),
                ratio(static_cast<double>(stats.failed()),
                      static_cast<double>(stats.sent())));
    std::printf("# %s latency us, all %zu requests: p50 %.1f p90 %.1f "
                "p99 %.1f p99.9 %.1f\n",
                label, latency.size(), quantile(latency, 0.5),
                quantile(latency, 0.9), quantile(latency, 0.99),
                quantile(latency, 0.999));
}

/**
 * End-to-end metrics of one load phase, over the whole phase: latency
 * percentiles of every request sent, throughput from the first send to
 * the last reply. In a closed loop a stall outside the process delays
 * only the requests in flight, so whole-phase figures absorb it.
 */
std::vector<Metric>
endToEnd(const LoadStats& stats, double setupSeconds)
{
    const double seconds =
        std::chrono::duration<double>(stats.lastReply - stats.firstSend)
            .count();
    return {
        {"setup_s", setupSeconds, "s"},
        {"qps", ratio(static_cast<double>(stats.ok), seconds), "1/s"},
        {"p50_us", quantile(stats.latencyUs, 0.50), "us"},
        {"p99_us", quantile(stats.latencyUs, 0.99), "us"},
        {"ok_frac",
         ratio(static_cast<double>(stats.ok),
               static_cast<double>(stats.sent())),
         "frac"},
        {"samples_per_s", ratio(stats.samples, seconds), "1/s"},
    };
}

/** The counters a traced phase reports as deltas. */
struct Snapshot
{
    serve::ServerStats server;
    uncertain::core::PlanCacheStats cache;
};

Snapshot
snapshot(const serve::UncertainServer& server)
{
    return {server.stats(), server.planCache()->stats()};
}

/** Per-layer metrics of a traced phase plus its replay, and the
 *  per-request table whose rows add up to the client round trip. */
std::vector<Metric>
perLayer(const LoadStats& untraced, const LoadStats& traced,
         const Snapshot& before, const Snapshot& after,
         const ReplayResult& replayed)
{
    const double ok = static_cast<double>(traced.ok);
    const double roundTripUs = ratio(traced.roundTripSumUs, ok);
    double residenceSum = 0.0;
    for (double r : traced.residenceUs)
        residenceSum += r;
    const double residenceUs = ratio(residenceSum, ok);
    const double requestCodecUs = ratio(traced.requestCodecSumNs, ok) / 1e3;
    const double replyCodecUs = ratio(traced.replyCodecSumNs, ok) / 1e3;
    const double loopbackUs = roundTripUs - residenceUs;
    const double handoffUs = loopbackUs - requestCodecUs - replyCodecUs;
    const double sirRemainderUs =
        replayed.sirBuildUs - replayed.proposalUs - replayed.logPdfUs
        - replayed.resampleUs;
    const double buildSirRemainderUs =
        replayed.buildSirUs - replayed.buildProposalUs
        - replayed.buildLogPdfUs - replayed.buildResampleUs;
    const double waitUs = residenceUs - replayed.graphBuildUs
                          - replayed.sirBuildUs - replayed.planResolveUs
                          - replayed.executeUs;

    const struct
    {
        const char* name;
        double us;
    } rows[] = {
        {"serve.protocol.request_codec", requestCodecUs},
        {"serve.protocol.reply_codec", replyCodecUs},
        {"serve.transport.handoff", handoffUs},
        {"serve.server.wait", waitUs},
        {"gps.graph_build", replayed.graphBuildUs},
        {"inference.proposal", replayed.proposalUs},
        {"inference.logpdf", replayed.logPdfUs},
        {"inference.resample", replayed.resampleUs},
        {"inference.sir_remainder", sirRemainderUs},
        {"core.plan_cache.resolve", replayed.planResolveUs},
        {"core.batch.exec", replayed.executeUs},
    };
    double rowSum = 0.0;
    std::printf("# per-request time, mean us (%llu traced requests, "
                "%zu replayed):\n",
                static_cast<unsigned long long>(traced.ok),
                replayed.requests);
    for (const auto& row : rows) {
        std::printf("#   %-32s %12.3f\n", row.name, row.us);
        rowSum += row.us;
    }
    std::printf("#   %-32s %12.3f\n", "sum of rows", rowSum);
    std::printf("#   %-32s %12.3f\n", "measured client round trip",
                roundTripUs);

    const double untracedRoundTripUs =
        ratio(untraced.roundTripSumUs, static_cast<double>(untraced.ok));
    // Counter growth over the traced phase.
    const auto grew = [](std::uint64_t after_, std::uint64_t before_) {
        return static_cast<double>(after_ - before_);
    };
    const double executed =
        grew(after.server.executed, before.server.executed);
    const double cacheHits = grew(after.cache.hits, before.cache.hits);
    // The fragment cache is process-wide: set-up, load and replay.
    const auto fragments = uncertain::jit::fragmentCacheStats();
    const double fragHits = static_cast<double>(fragments.hits);
    return {
        {"serve.transport.loopback_us", loopbackUs, "us"},
        {"serve.transport.handoff_us", handoffUs, "us"},
        {"serve.protocol.request_codec_ns", requestCodecUs * 1e3, "ns"},
        {"serve.protocol.reply_codec_ns", replyCodecUs * 1e3, "ns"},
        {"serve.server.residence_p50_us",
         quantile(traced.residenceUs, 0.50), "us"},
        {"serve.server.residence_p99_us",
         quantile(traced.residenceUs, 0.99), "us"},
        {"serve.server.wait_us", waitUs, "us"},
        {"serve.server.batch_mean",
         ratio(executed, grew(after.server.batches, before.server.batches)),
         "count"},
        {"serve.server.coalesced_frac",
         ratio(grew(after.server.coalescedRequests,
                    before.server.coalescedRequests),
               executed),
         "frac"},
        {"serve.server.queue_peak",
         static_cast<double>(after.server.queuePeak), "count"},
        {"serve.server.model_builds",
         grew(after.server.modelBuilds, before.server.modelBuilds),
         "count"},
        {"core.plan_cache.hit_frac",
         ratio(cacheHits,
               cacheHits + grew(after.cache.misses, before.cache.misses)),
         "frac"},
        {"core.plan_cache.evictions",
         grew(after.cache.evictions, before.cache.evictions), "count"},
        {"core.plan_cache.lookup_ns", replayed.lookupNs, "ns"},
        {"core.plan_cache.compile_us", replayed.compileUs, "us"},
        {"core.plan_cache.resolve_us", replayed.planResolveUs, "us"},
        {"core.jit.fragment_hit_frac",
         ratio(fragHits,
               fragHits + static_cast<double>(fragments.misses)),
         "frac"},
        {"core.jit.compile_us", replayed.jitCompileUs, "us"},
        {"core.batch.exec_us", replayed.executeUs, "us"},
        {"core.batch.pr_us", replayed.prUs, "us"},
        {"core.batch.advise_us", replayed.adviseUs, "us"},
        {"core.batch.take_ns_per_sample", replayed.takeNsPerSample, "ns"},
        {"core.batch.fill_ns_per_sample", replayed.fillNsPerSample, "ns"},
        {"core.batch.jit_strip_frac", replayed.jitStripFrac, "frac"},
        {"core.conditional.samples_per_pr",
         ratio(static_cast<double>(traced.prSamples),
               static_cast<double>(traced.prCount)),
         "count"},
        {"core.conditional.samples_per_advise",
         ratio(static_cast<double>(traced.adviseSamples),
               static_cast<double>(traced.adviseCount)),
         "count"},
        {"random.gaussian_fill_ns", replayed.gaussianFillNs, "ns"},
        {"random.rng_fill_ns", replayed.rngFillNs, "ns"},
        {"inference.sir_build_us", replayed.buildSirUs, "us"},
        {"inference.proposal_us", replayed.buildProposalUs, "us"},
        {"inference.logpdf_us", replayed.buildLogPdfUs, "us"},
        {"inference.resample_us", replayed.buildResampleUs, "us"},
        {"inference.sir_remainder_us", buildSirRemainderUs, "us"},
        {"inference.ess", replayed.ess, "count"},
        {"gps.graph_build_us", replayed.buildGraphUs, "us"},
        {"trace.request_us", roundTripUs, "us"},
        {"trace.overhead_frac", ratio(roundTripUs, untracedRoundTripUs) - 1.0,
         "frac"},
    };
}

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
};

bool
parseArgs(int argc, char** argv, Args& args)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const char* value = argv[i + 1];
        char* end = nullptr;
        if (flag == "--workload") {
            args.workload = value;
            continue;
        }
        if (flag == "--seed") {
            args.seed = std::strtoull(value, &end, 10);
        } else if (flag == "--seconds") {
            args.seconds = std::strtod(value, &end);
        } else if (flag == "--trace") {
            const long trace = std::strtol(value, &end, 10);
            if (trace != 0 && trace != 1)
                return false;
            args.trace = trace == 1;
        } else {
            return false;
        }
        if (end == value || *end != '\0')
            return false;
    }
    return (argc % 2) == 1 && !args.workload.empty() && args.seconds > 0.0;
}

bool
workloadNamed(const std::string& name, Workload& out)
{
    if (name == "fleet_shared")
        out = Workload::FleetShared;
    else if (name == "fleet_fresh")
        out = Workload::FleetFresh;
    else if (name == "bulk_draws")
        out = Workload::BulkDraws;
    else
        return false;
    return true;
}

int
run(const Args& args, Workload workload)
{
    namespace simd = uncertain::simd;
    namespace jit = uncertain::jit;
    const Generator generator(workload, args.seed);
    std::printf("# perfbench %s seed %llu seconds %g trace %d\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace ? 1 : 0);
    std::printf("# env: nproc %u isa %s jit %d build %s; server workers "
                "%zu, generator threads 1\n",
                std::thread::hardware_concurrency(),
                simd::isaName(simd::activeIsa()),
                jit::available() ? 1 : 0, PERFBENCH_BUILD_TYPE,
                loadOptions(workload).workers);

    std::unique_ptr<serve::UncertainServer> server;
    std::vector<double> setupSeconds;
    const std::size_t reps = args.trace ? 1 : kSetupReps;
    for (std::size_t rep = 0; rep < reps; ++rep)
        setupSeconds.push_back(setUp(generator, rep, server));

    // Request counters per phone carry over between the phases.
    std::vector<std::uint64_t> nextK(generator.phones(), 0);
    std::vector<Metric> metrics;
    std::vector<LoadStats> phases;
    if (!args.trace) {
        PlainClient client(*server);
        phases.push_back(runClosed(client, generator, nextK, args.seconds));
        printRequests("requests", phases[0]);
        metrics = endToEnd(phases[0], median(setupSeconds));
    } else {
        PlainClient plain(*server);
        phases.push_back(
            runClosed(plain, generator, nextK, args.seconds / 2.0));
        printRequests("untraced requests", phases[0]);

        const Snapshot before = snapshot(*server);
        TracedClient client(*server);
        phases.push_back(
            runClosed(client, generator, nextK, args.seconds / 2.0));
        const Snapshot after = snapshot(*server);
        printRequests("traced requests", phases[1]);
        server->stop();

        std::vector<serve::Request> sample;
        for (const Check& check : phases[1].checks)
            sample.push_back(check.request);
        metrics = perLayer(phases[0], phases[1], before, after,
                           replay(generator, sample));
    }
    server.reset();

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Check> checks;
    std::string error;
    for (LoadStats& phase : phases) {
        attempted += phase.sent();
        failed += phase.failed();
        std::move(phase.checks.begin(), phase.checks.end(),
                  std::back_inserter(checks));
        if (error.empty())
            error = phase.error;
    }
    if (error.empty())
        error = checkAgainstReference(checks);
    if (!error.empty()) {
        std::fprintf(stderr, "fleetbench: incorrect reply: %s\n",
                     error.c_str());
        printResult(false, attempted, failed, {});
        return 1;
    }
    std::printf("# reference check: %zu sampled replies bit-identical\n",
                checks.size());
    printResult(true, attempted, failed, metrics);
    return 0;
}

} // namespace
} // namespace perfbench

int
main(int argc, char** argv)
{
    perfbench::Args args;
    perfbench::Workload workload{};
    if (!perfbench::parseArgs(argc, argv, args)
        || !perfbench::workloadNamed(args.workload, workload)) {
        std::fprintf(stderr,
                     "usage: fleetbench --workload "
                     "fleet_shared|fleet_fresh|bulk_draws --seed N "
                     "--seconds S --trace 0|1\n");
        return 2;
    }
    try {
        return perfbench::run(args, workload);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "fleetbench: %s\n", e.what());
        return 1;
    }
}
