#include "serve/server.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>
#include <utility>

#include "core/operators.hpp"
#include "gps/walking.hpp"
#include "inference/reweight.hpp"
#include "random/gaussian.hpp"
#include "support/error.hpp"

namespace uncertain {
namespace serve {
namespace {

/** Stream tag separating model-build streams from request streams. */
constexpr std::uint64_t kModelStreamTag = 0x6d6f64656cULL; // "model"

std::uint64_t
mix64(std::uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/** Order-sensitive hash of (modelId, params) for instance keys and
 *  build-stream derivation. */
std::uint64_t
hashModelParams(std::uint32_t modelId, const std::vector<double>& params)
{
    std::uint64_t h = mix64(0x9e3779b97f4a7c15ULL ^ modelId);
    for (double p : params) {
        std::uint64_t bits = 0;
        static_assert(sizeof bits == sizeof p);
        std::memcpy(&bits, &p, sizeof bits);
        h = mix64(h ^ bits);
    }
    return h;
}

/** Bitwise params equality, the relation hashModelParams respects. */
bool
sameParams(const std::vector<double>& a, const std::vector<double>& b)
{
    return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                      [](double x, double y) {
                          return std::bit_cast<std::uint64_t>(x)
                                 == std::bit_cast<std::uint64_t>(y);
                      });
}

/** Fold @p from into @p into: counters add, high-water marks max. */
void
accumulate(ServerStats& into, const ServerStats& from)
{
    into.received += from.received;
    into.admitted += from.admitted;
    into.rejectedOverload += from.rejectedOverload;
    into.malformed += from.malformed;
    into.badRequest += from.badRequest;
    into.unknownModel += from.unknownModel;
    into.shuttingDown += from.shuttingDown;
    into.queuePeak = std::max(into.queuePeak, from.queuePeak);
    into.executed += from.executed;
    into.batches += from.batches;
    into.coalescedRequests += from.coalescedRequests;
    into.batchOccupancyMax =
        std::max(into.batchOccupancyMax, from.batchOccupancyMax);
    into.samplesDrawn += from.samplesDrawn;
    into.modelBuilds += from.modelBuilds;
    into.prQueries += from.prQueries;
    into.expectedValueQueries += from.expectedValueQueries;
    into.takeSamplesQueries += from.takeSamplesQueries;
    into.adviseQueries += from.adviseQueries;
    for (const auto& [tenantId, tenant] : from.tenants) {
        TenantStats& sum = into.tenants[tenantId];
        sum.received += tenant.received;
        sum.executed += tenant.executed;
        sum.rejected += tenant.rejected;
        sum.samplesUsed += tenant.samplesUsed;
    }
}

bool
allFinite(const std::vector<double>& params)
{
    for (double p : params) {
        if (!std::isfinite(p))
            return false;
    }
    return true;
}

/**
 * Builtin model kModelGaussianChain: params [mu, sigma, depth, cut].
 * A Gaussian leaf pushed through a depth-deep elementwise chain; the
 * served law stays the analytic
 * Gaussian(mu + depth * kGaussianChainStep, sigma), so the
 * statistical shard can KS the served samples against a closed form.
 */
bool
buildGaussianChain(const std::vector<double>& params, Rng&,
                   ModelInstance& out)
{
    if (params.size() != 4 || !allFinite(params))
        return false;
    const double mu = params[0];
    const double sigma = params[1];
    const double depthRaw = params[2];
    const double cut = params[3];
    if (!(sigma > 0.0) || !(depthRaw >= 0.0 && depthRaw <= 256.0))
        return false;
    const int depth = static_cast<int>(depthRaw);

    Uncertain<double> x = core::fromDistribution(
        std::make_shared<random::Gaussian>(mu, sigma));
    for (int i = 0; i < depth; ++i)
        x = x + kGaussianChainStep;
    out.value = x.node();
    out.event = (x > cut).node();
    out.fast = (x > gps::kBriskWalkMph).node();
    out.slow = (x < gps::kBriskWalkMph).node();
    return true;
}

/**
 * Builtin model kModelGpsSpeed: params
 * [lat, lon, epsilon95, bearingRadians, distanceMeters, dtSeconds] —
 * one phone fix pair. The served value is the fig11 speed posterior:
 * speedFromFixes through the uncertain GPS library, improved by the
 * walking prior (SIR). The proposal pool draws exclusively from
 * @p buildRng, so a rebuilt instance is bit-identical.
 */
bool
buildGpsSpeed(const std::vector<double>& params, Rng& buildRng,
              ModelInstance& out)
{
    if (params.size() != 6 || !allFinite(params))
        return false;
    const double lat = params[0];
    const double lon = params[1];
    const double eps = params[2];
    const double bearing = params[3];
    const double distance = params[4];
    const double dt = params[5];
    if (!(eps > 0.0) || !(dt > 0.0) || !(distance >= 0.0)
        || std::fabs(lat) > 90.0 || std::fabs(lon) > 180.0) {
        return false;
    }

    const gps::GeoCoordinate start(lat, lon);
    const gps::GpsFix earlier{start, eps, 0.0};
    const gps::GpsFix later{gps::destination(start, bearing, distance),
                            eps, dt};
    Uncertain<double> speed = gps::speedFromFixes(earlier, later);
    Uncertain<double> improved =
        gps::improveSpeed(speed, inference::ReweightOptions{},
                          buildRng);
    out.value = improved.node();
    out.event = (improved > gps::kBriskWalkMph).node();
    out.fast = out.event;
    out.slow = (improved < gps::kBriskWalkMph).node();
    return true;
}

/** The semantic bounds decodeRequest enforces, re-checked for typed
 *  submits that bypass the codec. */
Status
validateRequest(const Request& request)
{
    if (request.opcode < Opcode::Pr || request.opcode > Opcode::Advise)
        return Status::BadRequest;
    if (request.params.size() > kMaxParams)
        return Status::BadRequest;
    if (request.sampleCount > kMaxSampleCount)
        return Status::BadRequest;
    if (request.opcode == Opcode::TakeSamples
        && request.sampleCount > kMaxSamplesPerReply) {
        return Status::BadRequest;
    }
    if (request.opcode == Opcode::Pr
        && !(request.threshold > 0.0 && request.threshold < 1.0)) {
        return Status::BadRequest;
    }
    return Status::Ok;
}

} // namespace

bool
UncertainServer::InstanceKey::operator==(const InstanceKey& other) const
{
    return modelId == other.modelId && sameParams(params, other.params);
}

std::size_t
UncertainServer::InstanceKeyHash::operator()(const InstanceKey& key) const
{
    return static_cast<std::size_t>(
        hashModelParams(key.modelId, key.params));
}

UncertainServer::UncertainServer(ServerOptions options)
    : options_(std::move(options)),
      rootRng_(options_.seed),
      planCache_(std::make_shared<core::PlanCache>())
{
    UNCERTAIN_REQUIRE(options_.queueCapacity >= 1,
                      "serve: queueCapacity must be >= 1");
    UNCERTAIN_REQUIRE(options_.maxBatch >= 1,
                      "serve: maxBatch must be >= 1");
    UNCERTAIN_REQUIRE(options_.workers >= 1,
                      "serve: workers must be >= 1");
    const std::size_t cpus = core::availableCpus();
    scheduler_ = std::make_shared<core::BlockScheduler>(
        static_cast<unsigned>(cpus > options_.workers
                                  ? cpus - options_.workers
                                  : 0));
    registry_.emplace(kModelGaussianChain, buildGaussianChain);
    registry_.emplace(kModelGpsSpeed, buildGpsSpeed);
    for (std::size_t i = 0; i <= options_.workers; ++i)
        shards_.push_back(std::make_unique<StatsShard>());
}

UncertainServer::~UncertainServer()
{
    stop();
}

void
UncertainServer::start()
{
    std::lock_guard<std::mutex> lock(queueMutex_);
    if (started_ || stopping_)
        return;
    started_ = true;
    workers_.reserve(options_.workers);
    for (std::size_t i = 0; i < options_.workers; ++i) {
        StatsShard& shard = *shards_[i];
        workers_.emplace_back([this, &shard] { workerLoop(shard); });
    }
}

void
UncertainServer::stop()
{
    {
        std::lock_guard<std::mutex> lock(queueMutex_);
        if (stopping_)
            return;
        stopping_ = true;
    }
    queueCv_.notify_all();
    for (auto& worker : workers_)
        worker.join();
    workers_.clear();
    scheduler_->stop();
    // Anything still queued (e.g. the server was never started)
    // is refused, not dropped: every accepted request gets a reply.
    std::deque<Pending> backlog;
    {
        std::lock_guard<std::mutex> lock(queueMutex_);
        backlog.swap(queue_);
    }
    for (auto& pending : backlog) {
        Response refusal;
        refusal.status = Status::ShuttingDown;
        refusal.opcode = pending.request.opcode;
        refusal.tenantId = pending.request.tenantId;
        refusal.requestId = pending.request.requestId;
        reply(*shards_.back(), pending, std::move(refusal));
    }
}

bool
UncertainServer::running() const
{
    std::lock_guard<std::mutex> lock(queueMutex_);
    return started_ && !stopping_;
}

void
UncertainServer::registerModel(std::uint32_t id, ModelBuilder builder)
{
    UNCERTAIN_REQUIRE(builder != nullptr,
                      "serve: registerModel requires a builder");
    std::lock_guard<std::mutex> lock(registryMutex_);
    registry_[id] = std::move(builder);
    // Replacing a builder invalidates instances built by the old one.
    for (auto it = instances_.begin(); it != instances_.end();) {
        if (it->first.modelId == id)
            it = instances_.erase(it);
        else
            ++it;
    }
}

void
UncertainServer::rejectNow(const Request& request, const ReplySink& sink,
                           Status status, bool countTenantReceived)
{
    {
        StatsShard& control = *shards_.back();
        std::lock_guard<std::mutex> lock(control.mutex);
        ServerStats& stats = control.stats;
        TenantStats& tenant = stats.tenants[request.tenantId];
        ++stats.received;
        if (countTenantReceived)
            ++tenant.received;
        switch (status) {
          case Status::Overloaded: ++stats.rejectedOverload; break;
          case Status::Malformed:
          case Status::TooLarge: ++stats.malformed; break;
          case Status::BadRequest: ++stats.badRequest; break;
          case Status::UnknownModel: ++stats.unknownModel; break;
          case Status::ShuttingDown: ++stats.shuttingDown; break;
          case Status::Ok: break;
        }
        ++tenant.rejected;
    }
    Response refusal;
    refusal.status = status;
    refusal.opcode = request.opcode;
    refusal.tenantId = request.tenantId;
    refusal.requestId = request.requestId;
    if (sink)
        sink(refusal);
}

void
UncertainServer::submit(Request request, ReplySink sink)
{
    const auto now = Clock::now();
    const Status semantic = validateRequest(request);
    if (semantic != Status::Ok) {
        rejectNow(request, sink, semantic);
        return;
    }
    bool known;
    {
        std::lock_guard<std::mutex> lock(registryMutex_);
        known = registry_.find(request.modelId) != registry_.end();
    }
    if (!known) {
        rejectNow(request, sink, Status::UnknownModel);
        return;
    }

    // Admission: bounded queue, reject-with-backpressure. An admitted
    // request is counted under the queue lock this section takes
    // anyway; the reject reply is sent outside it.
    Status admission = Status::Ok;
    {
        std::lock_guard<std::mutex> lock(queueMutex_);
        if (stopping_) {
            admission = Status::ShuttingDown;
        } else if (queue_.size() >= options_.queueCapacity) {
            admission = Status::Overloaded;
        } else {
            ServerStats& stats = admissionStats_;
            ++stats.received;
            ++stats.tenants[request.tenantId].received;
            ++stats.admitted;
            queue_.push_back(
                Pending{std::move(request), std::move(sink), now});
            stats.queuePeak =
                std::max<std::uint64_t>(stats.queuePeak, queue_.size());
        }
    }
    if (admission != Status::Ok) {
        rejectNow(request, sink, admission);
        return;
    }
    queueCv_.notify_one();
}

void
UncertainServer::submitFrame(const std::uint8_t* payload,
                             std::size_t size, ReplySink sink)
{
    if (size > kMaxRequestFrameBytes) {
        rejectNow(Request{}, sink, Status::TooLarge,
                  /*countTenantReceived=*/false);
        return;
    }
    Request request;
    const Status status = decodeRequest(payload, size, request);
    if (status != Status::Ok) {
        rejectNow(request, sink, status);
        return;
    }
    submit(std::move(request), std::move(sink));
}

std::shared_ptr<const ModelInstance>
UncertainServer::instanceFor(StatsShard& shard, std::uint32_t modelId,
                             const std::vector<double>& params,
                             bool& badParams)
{
    badParams = false;
    InstanceKey key{modelId, params};
    ModelBuilder builder;
    {
        std::lock_guard<std::mutex> lock(registryMutex_);
        auto cached = instances_.find(key);
        if (cached != instances_.end())
            return cached->second;
        auto reg = registry_.find(modelId);
        if (reg == registry_.end())
            return nullptr;
        builder = reg->second;
    }

    // Build outside the lock (an SIR pool draw can take milliseconds).
    // The build stream is a pure function of (seed, modelId, params):
    // two workers racing on the same key build identical instances,
    // and the loser's copy serves identical replies.
    Rng buildRng = rootRng_.split(kModelStreamTag)
                       .split(modelId)
                       .split(hashModelParams(modelId, params));
    auto instance = std::make_shared<ModelInstance>();
    bool ok = false;
    try {
        ok = builder(params, buildRng, *instance);
    } catch (const Error&) {
        ok = false;
    }
    if (!ok || instance->value == nullptr || instance->event == nullptr
        || instance->fast == nullptr || instance->slow == nullptr) {
        badParams = true;
        return nullptr;
    }

    {
        std::lock_guard<std::mutex> statsLock(shard.mutex);
        ++shard.stats.modelBuilds;
    }
    std::lock_guard<std::mutex> lock(registryMutex_);
    auto cached = instances_.find(key);
    if (cached != instances_.end())
        return cached->second;
    if (instances_.size() >= options_.modelInstanceCapacity)
        instances_.clear();
    instances_.emplace(std::move(key), instance);
    return instance;
}

void
UncertainServer::workerLoop(StatsShard& shard)
{
    core::BatchSampler sampler(options_.batch, planCache_, scheduler_);
    std::vector<Pending> batch;
    const auto take = [&] {
        // Move as much of the queue as the batch has room for, under
        // the lock the caller holds.
        while (!queue_.empty() && batch.size() < options_.maxBatch) {
            batch.push_back(std::move(queue_.front()));
            queue_.pop_front();
        }
    };
    for (;;) {
        batch.clear();
        {
            std::unique_lock<std::mutex> lock(queueMutex_);
            queueCv_.wait(lock, [this] {
                return stopping_ || !queue_.empty();
            });
            if (stopping_)
                return; // stop() refuses the backlog
            take();
        }

        // Gather more work. The window bounds how long a LONE request
        // is held waiting for a companion; once the batch has peers
        // we take whatever is queued and execute immediately —
        // replies stream out per member, so under sustained load the
        // next cohort queues up while this one runs and batches stay
        // full without ever stalling on the window (natural
        // batching). Waiting out the window with a non-trivial batch
        // would add pure latency: the clients it came from are
        // blocked on these very replies.
        if (batch.size() == 1 && options_.maxBatch > 1) {
            const auto deadline =
                batch.front().enqueued
                + std::chrono::microseconds(options_.batchWindowMicros);
            std::unique_lock<std::mutex> lock(queueMutex_);
            if (queueCv_.wait_until(lock, deadline, [this] {
                    return stopping_ || !queue_.empty();
                })
                && !stopping_) {
                take();
            }
        }

        executeBatch(sampler, shard, batch);
    }
}

void
UncertainServer::executeBatch(core::BatchSampler& sampler,
                              StatsShard& shard,
                              std::vector<Pending>& batch)
{
    // Group by bitwise (modelId, params), order of first appearance,
    // and resolve each group's model instance once: one registry
    // lock and one params hash per group, not per request. The key
    // relation is InstanceKey's, so a group is exactly the set of
    // requests the instance cache would answer with one instance.
    struct Group
    {
        std::vector<std::size_t> members;
        std::shared_ptr<const ModelInstance> instance;
    };
    std::vector<Group> groups;
    for (std::size_t i = 0; i < batch.size(); ++i) {
        const Request& request = batch[i].request;
        auto group = std::find_if(
            groups.begin(), groups.end(), [&](const Group& g) {
                const Request& first = batch[g.members.front()].request;
                return first.modelId == request.modelId
                       && sameParams(first.params, request.params);
            });
        if (group == groups.end())
            groups.push_back(Group{{i}, nullptr});
        else
            group->members.push_back(i);
    }

    std::vector<Status> refusals(batch.size(), Status::Ok);
    std::uint64_t coalesced = 0;
    for (Group& group : groups) {
        const Request& request = batch[group.members.front()].request;
        bool badParams = false;
        group.instance =
            instanceFor(shard, request.modelId, request.params, badParams);
        if (group.instance == nullptr) {
            for (std::size_t index : group.members) {
                refusals[index] = badParams ? Status::BadRequest
                                            : Status::UnknownModel;
            }
        } else if (group.members.size() > 1) {
            coalesced += group.members.size();
        }
    }

    {
        std::lock_guard<std::mutex> lock(shard.mutex);
        ++shard.stats.batches;
        shard.stats.batchOccupancyMax = std::max<std::uint64_t>(
            shard.stats.batchOccupancyMax, batch.size());
        shard.stats.coalescedRequests += coalesced;
    }

    for (std::size_t i = 0; i < batch.size(); ++i) {
        if (refusals[i] == Status::Ok)
            continue;
        Response refusal;
        refusal.status = refusals[i];
        refusal.opcode = batch[i].request.opcode;
        refusal.tenantId = batch[i].request.tenantId;
        refusal.requestId = batch[i].request.requestId;
        reply(shard, batch[i], std::move(refusal));
    }

    for (const Group& group : groups) {
        if (group.instance == nullptr)
            continue;
        for (std::size_t index : group.members) {
            reply(shard, batch[index],
                  execute(sampler, batch[index].request,
                          *group.instance));
        }
    }
}

Response
UncertainServer::execute(core::BatchSampler& sampler,
                         const Request& request,
                         const ModelInstance& instance)
{
    // The request stream: a pure function of (seed, tenant, request),
    // independent of arrival order, batch grouping, worker identity,
    // and the sharePlans axis.
    Rng rng =
        rootRng_.split(request.tenantId).split(request.requestId);

    // Plan resolution per request: through the shared cache
    // (coalesced mode; hits after the group's first request) or a
    // fresh compile (the stateless per-request baseline).
    const auto planFor =
        [&](const auto& node) -> std::shared_ptr<const core::BatchPlan> {
        if (options_.sharePlans)
            return planCache_->planFor(node, options_.batch.optimizer);
        return core::BatchPlan::compile(node,
                                        options_.batch.optimizer);
    };

    Response response;
    response.opcode = request.opcode;
    response.tenantId = request.tenantId;
    response.requestId = request.requestId;

    core::ConditionalOptions conditional = options_.conditional;
    if (request.sampleCount > 0)
        conditional.sprt.maxSamples = request.sampleCount;

    try {
        switch (request.opcode) {
          case Opcode::Pr: {
            auto result = sampler.evaluateConditionPlan(
                planFor(instance.event), request.threshold,
                conditional, rng);
            response.decision =
                static_cast<std::uint16_t>(result.decision);
            response.value = result.estimate;
            response.samplesUsed = result.samplesUsed;
            break;
          }
          case Opcode::ExpectedValue: {
            const std::size_t n =
                request.sampleCount > 0
                    ? request.sampleCount
                    : options_.defaultExpectationSamples;
            response.value = sampler.expectedValuePlan<double>(
                planFor(instance.value), n, rng);
            response.samplesUsed = n;
            break;
          }
          case Opcode::TakeSamples: {
            const std::size_t n =
                request.sampleCount > 0 ? request.sampleCount
                                        : options_.defaultTakeSamples;
            response.samples = sampler.takeSamplesPlan<double>(
                planFor(instance.value), n, rng);
            response.samplesUsed = n;
            // The mean an ExpectedValue of the same stream and n
            // replies: one reduction shape on the serving path.
            if (n > 0) {
                response.value =
                    core::sumInBlocks(response.samples.data(), n,
                                      sampler.blockSize())
                    / static_cast<double>(n);
            }
            break;
          }
          case Opcode::Advise: {
            // The Figure 5(b) decision logic of gps/walking.cpp over
            // the instance's pre-built comparison roots: GoodJob on
            // more-likely-than-not fast, SpeedUp only on >= 90%
            // evidence of slow, else say nothing.
            auto fast = sampler.evaluateConditionPlan(
                planFor(instance.fast), 0.5, conditional, rng);
            response.samplesUsed = fast.samplesUsed;
            if (fast.toBool()) {
                response.decision =
                    static_cast<std::uint16_t>(gps::Advice::GoodJob);
                response.value = fast.estimate;
            } else {
                auto slow = sampler.evaluateConditionPlan(
                    planFor(instance.slow), 0.9, conditional, rng);
                response.samplesUsed += slow.samplesUsed;
                response.decision = static_cast<std::uint16_t>(
                    slow.toBool() ? gps::Advice::SpeedUp
                                  : gps::Advice::None);
                response.value = slow.estimate;
            }
            break;
          }
        }
        response.status = Status::Ok;
    } catch (const Error&) {
        response = Response{};
        response.status = Status::BadRequest;
        response.opcode = request.opcode;
        response.tenantId = request.tenantId;
        response.requestId = request.requestId;
    }
    return response;
}

void
UncertainServer::reply(StatsShard& shard, const Pending& pending,
                       Response response)
{
    const auto now = Clock::now();
    {
        // Counted before the sink fires: a reply is never visible
        // before serverStats() includes it.
        std::lock_guard<std::mutex> lock(shard.mutex);
        ServerStats& stats = shard.stats;
        auto& tenant = stats.tenants[pending.request.tenantId];
        if (response.status == Status::Ok) {
            ++stats.executed;
            ++tenant.executed;
            stats.samplesDrawn += response.samplesUsed;
            tenant.samplesUsed += response.samplesUsed;
            switch (response.opcode) {
              case Opcode::Pr: ++stats.prQueries; break;
              case Opcode::ExpectedValue:
                ++stats.expectedValueQueries;
                break;
              case Opcode::TakeSamples:
                ++stats.takeSamplesQueries;
                break;
              case Opcode::Advise: ++stats.adviseQueries; break;
            }
            shard.latency.record(static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::microseconds>(
                    now - pending.enqueued)
                    .count()));
        } else {
            ++tenant.rejected;
            switch (response.status) {
              case Status::BadRequest: ++stats.badRequest; break;
              case Status::UnknownModel: ++stats.unknownModel; break;
              case Status::ShuttingDown: ++stats.shuttingDown; break;
              default: break;
            }
        }
    }
    if (pending.sink)
        pending.sink(response);
}

ServerStats
UncertainServer::stats() const
{
    // Shards first, admissions last: every reply a shard has counted
    // was admitted earlier, so a snapshot never shows more executed
    // than received.
    ServerStats snapshot;
    LatencyHistogram latency;
    for (const auto& shard : shards_) {
        std::lock_guard<std::mutex> lock(shard->mutex);
        accumulate(snapshot, shard->stats);
        latency.merge(shard->latency);
    }
    {
        std::lock_guard<std::mutex> lock(queueMutex_);
        accumulate(snapshot, admissionStats_);
    }
    snapshot.latencySamples = latency.count();
    snapshot.p50LatencyMicros = latency.quantile(0.50);
    snapshot.p99LatencyMicros = latency.quantile(0.99);
    return snapshot;
}

std::string
ServerStats::toString() const
{
    std::ostringstream out;
    out << "serve: received " << received << " admitted " << admitted
        << " executed " << executed << "; rejected[overload "
        << rejectedOverload << " malformed " << malformed << " bad "
        << badRequest << " unknown " << unknownModel << " shutdown "
        << shuttingDown << "]; batches " << batches << " (coalesced "
        << coalescedRequests << ", occupancy max " << batchOccupancyMax
        << ", queue peak " << queuePeak << "); samples "
        << samplesDrawn << "; model builds " << modelBuilds
        << "; ops[pr " << prQueries << " ev " << expectedValueQueries
        << " take " << takeSamplesQueries << " advise "
        << adviseQueries << "]; latency p50 " << p50LatencyMicros
        << " us p99 " << p99LatencyMicros << " us (" << latencySamples
        << " replies); tenants " << tenants.size();
    return out.str();
}

std::string
serverReport(const ServerStats& stats)
{
    std::ostringstream out;
    out << stats.toString();
    for (const auto& [tenantId, tenant] : stats.tenants) {
        out << "\n  tenant " << tenantId << ": received "
            << tenant.received << " executed " << tenant.executed
            << " rejected " << tenant.rejected << " samples "
            << tenant.samplesUsed;
    }
    return out.str();
}

} // namespace serve
} // namespace uncertain
