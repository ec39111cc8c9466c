/**
 * @file
 * UncertainServer: a long-lived in-process daemon answering
 * uncertainty queries for many concurrent clients — the paper's
 * Uncertain<T> turned from a fast library into a fast service.
 *
 * Architecture:
 *
 *   clients -> transport (loopback / TCP) -> admission -> queue
 *          -> coalescing worker(s) -> BatchSampler over cached plans
 *             (multi-block queries: + shared BlockScheduler helpers)
 *          -> reply sinks
 *
 * Coalescing: a worker drains queued requests (up to maxBatch) and
 * groups the gathered batch by bitwise (modelId, params), resolving
 * each group's model instance once. Every request in a group then
 * executes against the same instance, and so the same plan-cache
 * entries, with a warm workspace — the columnar block machinery of
 * core/batch.hpp amortized across requests instead of within one.
 * (Each request still looks its plans up in the cache; after the
 * group's first request those lookups are hits.)
 * Batches form naturally: replies stream out per member, so under
 * load the next cohort queues up while the current one executes.
 * ServerOptions::batchWindowMicros only governs a LONE request: it is
 * held at most one window waiting for a companion, never longer, and
 * a batch that already has peers executes immediately rather than
 * waiting out the window (which would add pure latency — the clients
 * it came from are blocked on these very replies).
 *
 * Admission control: the queue is bounded (queueCapacity). A submit
 * that finds it full is answered immediately with Status::Overloaded
 * — backpressure as an explicit reply, not unbounded buffering or a
 * dropped connection. The server stays serviceable throughout.
 *
 * Reproducibility: every request executes with its own generator
 *
 *     Rng(seed).split(tenantId).split(requestId)
 *
 * a pure function of (server seed, tenant, request) because split()
 * never advances its parent (support/rng.hpp). Replies are therefore
 * bit-identical across runs, across arrival interleavings, across
 * batch groupings, and across the sharePlans axis — coalescing is a
 * scheduling optimization, never a semantic one. Model instances are
 * built with an Rng derived from (seed, modelId, params) the same
 * way, so a rebuilt instance (after cache eviction) reproduces the
 * original bit for bit.
 *
 * Observability: serverStats() / serverReport() mirror the
 * planStats() / planReport() inspect API for the serving layer —
 * admission and execution counters, batch occupancy, and p50/p99
 * reply latency from a log-bucketed histogram, plus per-tenant
 * breakdowns. The counters live where they are written, so the hot
 * path shares no stats lock: submit() counts admissions under the
 * queue lock it already holds, each worker counts its batches and
 * replies in its own shard, and only the cold refusal paths share
 * one lock. serverStats() merges them on read. A reply is counted
 * before its sink fires, so a sink that reads serverStats() already
 * sees it.
 */

#ifndef UNCERTAIN_SERVE_SERVER_HPP
#define UNCERTAIN_SERVE_SERVER_HPP

#include <array>
#include <bit>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/batch.hpp"
#include "core/uncertain.hpp"
#include "serve/protocol.hpp"
#include "support/rng.hpp"

namespace uncertain {
namespace serve {

/** Tuning for UncertainServer. */
struct ServerOptions
{
    /** Root of every derived stream (tenants, requests, models). */
    std::uint64_t seed = 0x5eedULL;

    /** Bounded-queue admission limit; beyond it submits are
     *  answered Status::Overloaded. */
    std::size_t queueCapacity = 1024;

    /** Most requests one coalesced batch may gather. */
    std::size_t maxBatch = 64;

    /**
     * Latency budget of the coalescer, microseconds: a lone dequeued
     * request is held at most this long waiting for a companion
     * before executing solo. A batch that already has two or more
     * members never waits — it drains the queue and runs. 0
     * degenerates to immediate per-request execution (with
     * maxBatch = 1, exactly the uncoalesced server).
     */
    std::size_t batchWindowMicros = 2000;

    /**
     * Worker threads draining the queue. Each owns a BatchSampler;
     * all share the one PlanCache and one BlockScheduler. A worker
     * runs the blocks of a query of more than batch.blockSize draws
     * (in practice a large ExpectedValue) itself, together with the
     * scheduler's helper threads. There are availableCpus() - workers
     * helpers, never below 0, counted once at construction from the
     * process's affinity mask (what nproc counts); they start on the
     * first multi-block query and stop() joins them. A helper that
     * lags is never waited for: once nothing is left to claim, the
     * worker recomputes the blocks still out, and the first finished
     * copy of a block is kept. Every block is a pure function of the
     * request's stream and its index, and each block's sum is taken
     * in one fixed shape and added in block order, so replies are
     * bit-identical for any worker and helper count.
     */
    std::size_t workers = 1;

    /**
     * true (default): plans resolve through the shared PlanCache, so
     * concurrent requests against the same model hit one compiled
     * plan. false: every request compiles its plan from scratch — the
     * stateless per-request-execution baseline bench_serve gates
     * against. Replies are bit-identical either way.
     */
    bool sharePlans = true;

    /** Columnar engine tuning (block size, optimizer passes). */
    core::BatchOptions batch{};

    /** Base conditional tuning for Pr / Advise (a request's
     *  sampleCount overrides sprt.maxSamples). */
    core::ConditionalOptions conditional{};

    /** Draws for ExpectedValue when the request leaves
     *  sampleCount = 0. */
    std::size_t defaultExpectationSamples = 1000;

    /** Draws for TakeSamples when the request leaves
     *  sampleCount = 0. */
    std::size_t defaultTakeSamples = 256;

    /** Built model instances cached per (modelId, params); at
     *  capacity the cache resets (rebuilds reproduce exactly). */
    std::size_t modelInstanceCapacity = 64;
};

/**
 * The graph roots one (modelId, params) pair serves queries against.
 * Built once per distinct parameterization and cached; all four roots
 * share leaves, so their plans share a cache lineage too.
 */
struct ModelInstance
{
    core::NodePtr<double> value; //!< ExpectedValue / TakeSamples root
    core::NodePtr<bool> event;   //!< Pr root
    core::NodePtr<bool> fast;    //!< Advise: value > brisk threshold
    core::NodePtr<bool> slow;    //!< Advise: value < brisk threshold
};

/**
 * Builds a ModelInstance from request params. @p buildRng is derived
 * deterministically from (server seed, modelId, params) — any
 * sampling done at build time (e.g. an SIR proposal pool) must draw
 * from it and nothing else, or rebuilt instances would not reproduce.
 * Return false to refuse the params (the request is answered
 * Status::BadRequest).
 */
using ModelBuilder = std::function<bool(const std::vector<double>& params,
                                        Rng& buildRng,
                                        ModelInstance& out)>;

/** Builtin model ids registered by every server. */
constexpr std::uint32_t kModelGaussianChain = 1;
constexpr std::uint32_t kModelGpsSpeed = 2;

/**
 * Mean increment per chain level of the builtin gaussian-chain model:
 * params [mu, sigma, depth, cut] serve an analytic
 * Gaussian(mu + depth * kGaussianChainStep, sigma) through a
 * depth-deep elementwise chain (what the fused strips eat), with
 * event = value > cut.
 */
constexpr double kGaussianChainStep = 0.125;

/**
 * Bounded log-bucket latency histogram over whole microseconds: values
 * below 64 get a bucket each, every octave above is split into 64
 * equal sub-buckets, and the buckets cover all of uint64. Constant
 * memory; a quantile reads back the middle of its bucket, so its
 * error is at most half a sub-bucket (< 0.8% of the value).
 */
class LatencyHistogram
{
  public:
    static constexpr int kSubBits = 6;
    static constexpr std::size_t kSubBuckets = std::size_t{1} << kSubBits;
    static constexpr std::size_t kBuckets =
        (64 - kSubBits + 1) * kSubBuckets;

    void
    record(std::uint64_t micros)
    {
        ++buckets_[bucketOf(micros)];
        ++count_;
    }

    /** Add every sample of @p other (histograms of separate shards). */
    void
    merge(const LatencyHistogram& other)
    {
        for (std::size_t i = 0; i < kBuckets; ++i)
            buckets_[i] += other.buckets_[i];
        count_ += other.count_;
    }

    std::uint64_t count() const { return count_; }

    /** Approximate @p q quantile in microseconds (q in [0, 1]). */
    double
    quantile(double q) const
    {
        if (count_ == 0)
            return 0.0;
        const double target = q * static_cast<double>(count_);
        std::uint64_t cumulative = 0;
        for (std::size_t i = 0; i < kBuckets; ++i) {
            cumulative += buckets_[i];
            if (static_cast<double>(cumulative) >= target)
                return bucketMidpoint(i);
        }
        return bucketMidpoint(kBuckets - 1);
    }

  private:
    static std::size_t
    bucketOf(std::uint64_t micros)
    {
        if (micros < kSubBuckets)
            return static_cast<std::size_t>(micros);
        const int msb = std::bit_width(micros) - 1; // >= kSubBits
        const std::size_t sub =
            (micros >> (msb - kSubBits)) & (kSubBuckets - 1);
        return (static_cast<std::size_t>(msb - kSubBits + 1) << kSubBits)
               | sub;
    }

    /** Middle of the whole microseconds a bucket holds. */
    static double
    bucketMidpoint(std::size_t index)
    {
        if (index < kSubBuckets)
            return static_cast<double>(index);
        const int msb = static_cast<int>(index >> kSubBits) + kSubBits - 1;
        const std::uint64_t sub = index & (kSubBuckets - 1);
        const std::uint64_t lower =
            (std::uint64_t{1} << msb) | (sub << (msb - kSubBits));
        const std::uint64_t width = std::uint64_t{1} << (msb - kSubBits);
        return static_cast<double>(lower)
               + static_cast<double>(width - 1) / 2.0;
    }

    std::array<std::uint64_t, kBuckets> buckets_{};
    std::uint64_t count_ = 0;
};

/** Per-tenant slice of the server counters. */
struct TenantStats
{
    std::uint64_t received = 0;
    std::uint64_t executed = 0;
    std::uint64_t rejected = 0; //!< overload + malformed + refused
    std::uint64_t samplesUsed = 0;
};

/** Snapshot of the serving counters (serverStats / serverReport). */
struct ServerStats
{
    // Admission.
    std::uint64_t received = 0;         //!< frames/requests submitted
    std::uint64_t admitted = 0;         //!< entered the queue
    std::uint64_t rejectedOverload = 0; //!< bounced by admission
    std::uint64_t malformed = 0;        //!< undecodable / oversized
    std::uint64_t badRequest = 0;       //!< parsed but refused
    std::uint64_t unknownModel = 0;
    std::uint64_t shuttingDown = 0;     //!< refused during/after stop
    std::uint64_t queuePeak = 0;        //!< high-water queue depth

    // Execution.
    std::uint64_t executed = 0;          //!< requests answered Ok
    std::uint64_t batches = 0;           //!< coalesced batches run
    std::uint64_t coalescedRequests = 0; //!< requests sharing a group
    std::uint64_t batchOccupancyMax = 0; //!< largest batch gathered
    std::uint64_t samplesDrawn = 0;      //!< root draws across replies
    std::uint64_t modelBuilds = 0;       //!< instance-cache misses

    // Per-opcode executed counts.
    std::uint64_t prQueries = 0;
    std::uint64_t expectedValueQueries = 0;
    std::uint64_t takeSamplesQueries = 0;
    std::uint64_t adviseQueries = 0;

    // Reply latency (submit -> reply), microseconds.
    double p50LatencyMicros = 0.0;
    double p99LatencyMicros = 0.0;
    std::uint64_t latencySamples = 0;

    /** Per-tenant breakdown, keyed by tenantId (ordered for stable
     *  rendering). */
    std::map<std::uint64_t, TenantStats> tenants;

    /** One-line rendering in the planReport() style. */
    std::string toString() const;
};

/** Receives the reply for one submitted request. Invoked exactly once
 *  per submit, possibly from a worker thread. Must not block for long
 *  (transports buffer; see serve/transport.hpp). */
using ReplySink = std::function<void(const Response&)>;

/**
 * The daemon. start() spins up the workers; submit()/submitFrame()
 * are thread-safe and may be called from any number of transport
 * threads. stop() refuses queued and future work with
 * Status::ShuttingDown (every accepted request is still answered —
 * no reply is ever silently dropped by the server core).
 */
class UncertainServer
{
  public:
    explicit UncertainServer(ServerOptions options = {});
    ~UncertainServer();

    UncertainServer(const UncertainServer&) = delete;
    UncertainServer& operator=(const UncertainServer&) = delete;

    /** Spin up the worker threads. Idempotent. */
    void start();

    /** Stop accepting work, answer the backlog ShuttingDown, join
     *  the workers. Idempotent. */
    void stop();

    bool running() const;

    const ServerOptions& options() const { return options_; }

    /** The plan cache shared by the workers (for tests inspecting
     *  hit/miss behavior across coalesced groups). */
    const std::shared_ptr<core::PlanCache>& planCache() const
    {
        return planCache_;
    }

    /** The block scheduler shared by the workers (for tests
     *  inspecting its helper threads). */
    const std::shared_ptr<core::BlockScheduler>& blockScheduler() const
    {
        return scheduler_;
    }

    /**
     * Register (or replace) a model. Builtin ids kModelGaussianChain
     * and kModelGpsSpeed are pre-registered; tests add instrumented
     * models (e.g. a latch-blocked sampler for overload tests).
     */
    void registerModel(std::uint32_t id, ModelBuilder builder);

    /** Submit a decoded request. The reply arrives through @p sink. */
    void submit(Request request, ReplySink sink);

    /**
     * Submit a raw frame payload (length prefix already stripped).
     * Undecodable payloads are answered with the relevant error
     * status through @p sink.
     */
    void submitFrame(const std::uint8_t* payload, std::size_t size,
                     ReplySink sink);

    /** Counter snapshot (thread-safe): merges the admission, refusal
     *  and per-worker counters on read. */
    ServerStats stats() const;

  private:
    using Clock = std::chrono::steady_clock;

    struct Pending
    {
        Request request;
        ReplySink sink;
        Clock::time_point enqueued;
    };

    /** (modelId, params) -> built instance. */
    struct InstanceKey
    {
        std::uint32_t modelId;
        std::vector<double> params;

        /** Bitwise on params, the relation the hash respects: +0.0
         *  and -0.0 are distinct keys, and a NaN equals itself. */
        bool operator==(const InstanceKey& other) const;
    };

    struct InstanceKeyHash
    {
        std::size_t operator()(const InstanceKey& key) const;
    };

    /**
     * The counters of one worker, or, for the control shard (the
     * last), of every refusal made outside a worker: stop()'s backlog
     * and rejectNow() on the transport threads. A worker's shard
     * contends only with stats(); the control shard also with the
     * transport threads that refuse at submit.
     */
    struct StatsShard
    {
        std::mutex mutex;
        ServerStats stats;
        LatencyHistogram latency;
    };

    void workerLoop(StatsShard& shard);
    void executeBatch(core::BatchSampler& sampler, StatsShard& shard,
                      std::vector<Pending>& batch);
    Response execute(core::BatchSampler& sampler, const Request& req,
                     const ModelInstance& instance);
    std::shared_ptr<const ModelInstance>
    instanceFor(StatsShard& shard, std::uint32_t modelId,
                const std::vector<double>& params, bool& badParams);
    void reply(StatsShard& shard, const Pending& pending,
               Response response);
    void rejectNow(const Request& request, const ReplySink& sink,
                   Status status, bool countTenantReceived = true);

    ServerOptions options_;
    Rng rootRng_; //!< Rng(options_.seed); only ever split, never advanced
    std::shared_ptr<core::PlanCache> planCache_;
    std::shared_ptr<core::BlockScheduler> scheduler_;

    mutable std::mutex queueMutex_;
    std::condition_variable queueCv_;
    std::deque<Pending> queue_;
    bool stopping_ = false;
    bool started_ = false;
    std::vector<std::thread> workers_;
    /** received / admitted / queuePeak of admitted requests, guarded
     *  by queueMutex_. */
    ServerStats admissionStats_;

    mutable std::mutex registryMutex_;
    std::unordered_map<std::uint32_t, ModelBuilder> registry_;
    std::unordered_map<InstanceKey,
                       std::shared_ptr<const ModelInstance>,
                       InstanceKeyHash>
        instances_;

    /** One shard per worker, then the control shard. */
    std::vector<std::unique_ptr<StatsShard>> shards_;
};

/** Counter snapshot, mirroring planStats(). */
inline ServerStats
serverStats(const UncertainServer& server)
{
    return server.stats();
}

/** One-line rendering, mirroring planReport(). */
std::string serverReport(const ServerStats& stats);

} // namespace serve
} // namespace uncertain

#endif // UNCERTAIN_SERVE_SERVER_HPP
