/**
 * @file
 * Single-threaded per-layer replay of a sample of a workload's
 * requests. Each step calls the same public layer function a server
 * worker calls for that request (UncertainServer::execute and the
 * builtin models build with), timed from here: model graph build (gps),
 * SIR (inference, split into its phases), plan resolution (core plan
 * cache) and the plan-direct query (core batch engine). Probes of the
 * random layer and of plan compilation ride along.
 */

#include "fleetbench.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "core/batch.hpp"
#include "core/operators.hpp"
#include "gps/walking.hpp"
#include "inference/resample.hpp"
#include "inference/reweight.hpp"
#include "random/discrete.hpp"
#include "random/gaussian.hpp"

namespace perfbench {
namespace {

namespace core = uncertain::core;
namespace gps = uncertain::gps;
namespace inference = uncertain::inference;
namespace urandom = uncertain::random;
using uncertain::Rng;
using uncertain::Uncertain;

/** Stream tag of the replay's model builds (any stream will do: the
 *  replay times the builds, it does not reproduce their pools). */
constexpr std::uint64_t kBuildStreamTag = 0x7265706c6179ULL; // "replay"

/** Draws per fill probe, and probe repetitions. */
constexpr std::size_t kProbeDraws = 8192;
constexpr std::size_t kProbeReps = 32;
constexpr std::size_t kFillProbeRequests = 16;

/** Extra timed builds of each GPS model the warm-up builds. */
constexpr std::size_t kBuildProbes = 16;

double
microsBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double, std::micro>(to - from).count();
}

/** Graph roots of one model instance, shaped like serve::ModelInstance. */
struct Instance
{
    core::NodePtr<double> value;
    core::NodePtr<bool> event;
    core::NodePtr<bool> fast;
    core::NodePtr<bool> slow;
};

/** kModelGaussianChain, built the way the server's builtin does. */
Instance
chainInstance(const std::vector<double>& params)
{
    Uncertain<double> x = core::fromDistribution(
        std::make_shared<urandom::Gaussian>(params[0], params[1]));
    const int depth = static_cast<int>(params[2]);
    for (int i = 0; i < depth; ++i)
        x = x + serve::kGaussianChainStep;
    return {x.node(), (x > params[3]).node(),
            (x > gps::kBriskWalkMph).node(),
            (x < gps::kBriskWalkMph).node()};
}

/** The phases of inference::applyPrior's SIR, called one by one on
 *  the same proposal source and stream as the whole build. */
struct SirPhases
{
    double proposalUs;
    double logPdfUs;
    double resampleUs;
    double ess;
};

SirPhases
sirPhases(const Uncertain<double>& speed, Rng rng)
{
    static const urandom::DistributionPtr prior = gps::walkingSpeedPrior();
    const inference::ReweightOptions options{};

    const auto t0 = Clock::now();
    std::vector<double> proposals =
        speed.takeSamples(options.proposalSamples, rng);
    const auto t1 = Clock::now();
    std::vector<double> logWeights(proposals.size());
    prior->logPdfMany(proposals.data(), logWeights.data(),
                      proposals.size());
    const auto t2 = Clock::now();
    std::vector<double> weights;
    const auto summary = inference::detail::normalizeLogWeights(
        logWeights, weights, "replay: no overlap");
    urandom::Discrete table(proposals, weights);
    std::vector<double> pool;
    pool.reserve(options.resampleSize);
    for (std::size_t i = 0; i < options.resampleSize; ++i)
        pool.push_back(table.sample(rng));
    const auto t3 = Clock::now();
    return {microsBetween(t0, t1), microsBetween(t1, t2),
            microsBetween(t2, t3), summary.ess};
}

/** Median per-element cost in ns of @p reps runs of @p fill. */
template <typename Fill>
double
perElementNs(std::size_t elements, Fill&& fill)
{
    std::vector<double> ns;
    ns.reserve(kProbeReps);
    for (std::size_t r = 0; r < kProbeReps; ++r) {
        const auto t0 = Clock::now();
        fill();
        ns.push_back(microsBetween(t0, Clock::now()) * 1000.0
                     / static_cast<double>(elements));
    }
    std::nth_element(ns.begin(), ns.begin() + ns.size() / 2, ns.end());
    return ns[ns.size() / 2];
}

class Replayer
{
  public:
    explicit Replayer(Workload workload)
        : options_(loadOptions(workload)),
          root_(options_.seed),
          cache_(std::make_shared<core::PlanCache>()),
          sampler_(options_.batch, cache_)
    {}

    /** Replay @p request; accumulate into the table when @p counted
     *  (warm-up requests build what the server built before the
     *  window and are not counted). */
    void
    run(const serve::Request& request, bool counted)
    {
        counted_ = counted;
        const Instance& instance = instanceFor(request);
        execute(request, instance);
        if (counted && result_.requests < kFillProbeRequests)
            fillProbe(instance);
        if (counted)
            ++result_.requests;
    }

    /** Build @p request's GPS model kBuildProbes more times, each from
     *  its own stream, timing only the build. */
    void
    probeBuilds(const serve::Request& request)
    {
        counted_ = false;
        if (request.modelId != serve::kModelGpsSpeed)
            return;
        for (std::size_t i = 0; i < kBuildProbes; ++i)
            (void)gpsInstance(request.params);
    }

    ReplayResult
    finish()
    {
        ReplayResult out = result_;
        const double n =
            static_cast<double>(std::max<std::size_t>(out.requests, 1));
        for (double* row : {&out.graphBuildUs, &out.sirBuildUs,
                            &out.proposalUs, &out.logPdfUs,
                            &out.resampleUs, &out.planResolveUs,
                            &out.executeUs})
            *row /= n;
        const auto mean = [](double sum, std::size_t count) {
            return count > 0 ? sum / static_cast<double>(count) : 0.0;
        };
        out.lookupNs = mean(out.lookupNs, lookups_);
        out.compileUs = mean(out.compileUs, lookups_);
        out.jitCompileUs = mean(out.jitCompileUs, lookups_);
        out.prUs = mean(out.prUs, prCount_);
        out.adviseUs = mean(out.adviseUs, adviseCount_);
        out.takeNsPerSample = mean(out.takeNsPerSample, takeCount_);
        out.fillNsPerSample = mean(out.fillNsPerSample, fillCount_);
        for (double* perBuild :
             {&out.buildGraphUs, &out.buildSirUs, &out.buildProposalUs,
              &out.buildLogPdfUs, &out.buildResampleUs, &out.ess})
            *perBuild = mean(*perBuild, out.builds);

        std::uint64_t strips = 0;
        std::uint64_t jitStrips = 0;
        for (const auto& plan : plans_) {
            const auto counters = plan->execCounters();
            strips += counters.stripsExecuted;
            jitStrips += counters.jitStripsExecuted;
        }
        out.jitStripFrac =
            strips > 0 ? static_cast<double>(jitStrips)
                             / static_cast<double>(strips)
                       : 0.0;

        urandom::Gaussian gaussian(3.5, 1.5);
        Rng rng(options_.seed);
        std::vector<double> draws(kProbeDraws);
        out.gaussianFillNs = perElementNs(kProbeDraws, [&] {
            gaussian.sampleMany(rng, draws.data(), draws.size());
        });
        std::vector<std::uint64_t> words(kProbeDraws);
        out.rngFillNs = perElementNs(kProbeDraws, [&] {
            rng.fillU64(words.data(), words.size());
        });
        return out;
    }

  private:
    const Instance&
    instanceFor(const serve::Request& request)
    {
        auto key = std::make_pair(request.modelId, request.params);
        auto found = instances_.find(key);
        if (found != instances_.end())
            return found->second;
        Instance instance;
        if (request.modelId == serve::kModelGaussianChain) {
            instance = chainInstance(request.params);
        } else {
            instance = gpsInstance(request.params);
        }
        return instances_.emplace(std::move(key), std::move(instance))
            .first->second;
    }

    /** kModelGpsSpeed: graph build and SIR timed, then the SIR phases
     *  timed again one by one from the same stream state. */
    Instance
    gpsInstance(const std::vector<double>& params)
    {
        const gps::GeoCoordinate start(params[0], params[1]);
        const gps::GpsFix earlier{start, params[2], 0.0};
        const gps::GpsFix later{
            gps::destination(start, params[3], params[4]), params[2],
            params[5]};
        const Rng buildRng = root_.split(kBuildStreamTag).split(builds_++);

        const auto t0 = Clock::now();
        Uncertain<double> speed = gps::speedFromFixes(earlier, later);
        const auto t1 = Clock::now();
        Rng sirRng = buildRng;
        Uncertain<double> improved = gps::improveSpeed(
            speed, inference::ReweightOptions{}, sirRng);
        const auto t2 = Clock::now();
        const SirPhases phases = sirPhases(speed, buildRng);

        ++result_.builds;
        result_.ess += phases.ess;
        result_.buildGraphUs += microsBetween(t0, t1);
        result_.buildSirUs += microsBetween(t1, t2);
        result_.buildProposalUs += phases.proposalUs;
        result_.buildLogPdfUs += phases.logPdfUs;
        result_.buildResampleUs += phases.resampleUs;
        if (counted_) {
            result_.graphBuildUs += microsBetween(t0, t1);
            result_.sirBuildUs += microsBetween(t1, t2);
            result_.proposalUs += phases.proposalUs;
            result_.logPdfUs += phases.logPdfUs;
            result_.resampleUs += phases.resampleUs;
        }
        Instance instance;
        instance.value = improved.node();
        instance.event = (improved > gps::kBriskWalkMph).node();
        instance.fast = instance.event;
        instance.slow = (improved < gps::kBriskWalkMph).node();
        return instance;
    }

    /** PlanCache::planFor as the server resolves it, plus two probes
     *  outside the table: a timed hit and a timed fresh compile. */
    template <typename T>
    std::shared_ptr<const core::BatchPlan>
    resolve(const core::NodePtr<T>& node)
    {
        const auto& optimizer = options_.batch.optimizer;
        const auto t0 = Clock::now();
        auto plan = cache_->planFor(node, optimizer);
        const auto t1 = Clock::now();
        if (!counted_)
            return plan;
        result_.planResolveUs += microsBetween(t0, t1);

        const auto t2 = Clock::now();
        (void)cache_->planFor(node, optimizer);
        const auto t3 = Clock::now();
        auto compiled = core::BatchPlan::compile(node, optimizer);
        const auto t4 = Clock::now();
        result_.lookupNs += microsBetween(t2, t3) * 1000.0;
        result_.compileUs += microsBetween(t3, t4);
        result_.jitCompileUs +=
            static_cast<double>(compiled->stats().jitCompileNanos)
            / 1000.0;
        ++lookups_;
        if (std::find(plans_.begin(), plans_.end(), plan) == plans_.end())
            plans_.push_back(plan);
        return plan;
    }

    /** UncertainServer::execute's query step, timed per opcode. */
    void
    execute(const serve::Request& request, const Instance& instance)
    {
        Rng rng = root_.split(request.tenantId).split(request.requestId);
        core::ConditionalOptions conditional = options_.conditional;
        if (request.sampleCount > 0)
            conditional.sprt.maxSamples = request.sampleCount;

        double spent = 0.0;
        switch (request.opcode) {
          case serve::Opcode::Pr: {
            auto plan = resolve(instance.event);
            const auto t0 = Clock::now();
            (void)sampler_.evaluateConditionPlan(plan, request.threshold,
                                                 conditional, rng);
            spent = microsBetween(t0, Clock::now());
            result_.prUs += counted_ ? spent : 0.0;
            prCount_ += counted_ ? 1 : 0;
            break;
          }
          case serve::Opcode::ExpectedValue: {
            const std::size_t n = request.sampleCount > 0
                                      ? request.sampleCount
                                      : options_.defaultExpectationSamples;
            auto plan = resolve(instance.value);
            const auto t0 = Clock::now();
            (void)sampler_.expectedValuePlan<double>(plan, n, rng);
            spent = microsBetween(t0, Clock::now());
            break;
          }
          case serve::Opcode::TakeSamples: {
            const std::size_t n = request.sampleCount > 0
                                      ? request.sampleCount
                                      : options_.defaultTakeSamples;
            auto plan = resolve(instance.value);
            const auto t0 = Clock::now();
            (void)sampler_.takeSamplesPlan<double>(plan, n, rng);
            spent = microsBetween(t0, Clock::now());
            result_.takeNsPerSample +=
                counted_ ? spent * 1000.0 / static_cast<double>(n) : 0.0;
            takeCount_ += counted_ ? 1 : 0;
            break;
          }
          case serve::Opcode::Advise: {
            auto fastPlan = resolve(instance.fast);
            auto t0 = Clock::now();
            auto fast = sampler_.evaluateConditionPlan(fastPlan, 0.5,
                                                       conditional, rng);
            spent = microsBetween(t0, Clock::now());
            if (!fast.toBool()) {
                auto slowPlan = resolve(instance.slow);
                t0 = Clock::now();
                (void)sampler_.evaluateConditionPlan(slowPlan, 0.9,
                                                     conditional, rng);
                spent += microsBetween(t0, Clock::now());
            }
            result_.adviseUs += counted_ ? spent : 0.0;
            adviseCount_ += counted_ ? 1 : 0;
            break;
          }
        }
        if (counted_)
            result_.executeUs += spent;
    }

    /** sampleIntoPlan over the instance's value plan. */
    void
    fillProbe(const Instance& instance)
    {
        auto plan = cache_->planFor(instance.value, options_.batch.optimizer);
        std::vector<double> out(kProbeDraws);
        Rng rng = root_.split(fillCount_);
        const auto t0 = Clock::now();
        sampler_.sampleIntoPlan(plan, out.size(), rng, out.data());
        result_.fillNsPerSample += microsBetween(t0, Clock::now()) * 1000.0
                                   / static_cast<double>(out.size());
        ++fillCount_;
    }

    serve::ServerOptions options_;
    Rng root_;
    std::shared_ptr<core::PlanCache> cache_;
    core::BatchSampler sampler_;
    std::map<std::pair<std::uint32_t, std::vector<double>>, Instance>
        instances_;
    std::vector<std::shared_ptr<const core::BatchPlan>> plans_;

    ReplayResult result_;
    bool counted_ = false;
    std::uint64_t builds_ = 0;
    std::size_t lookups_ = 0;
    std::size_t prCount_ = 0;
    std::size_t adviseCount_ = 0;
    std::size_t takeCount_ = 0;
    std::size_t fillCount_ = 0;
};

} // namespace

ReplayResult
replay(const Generator& generator,
       const std::vector<serve::Request>& sample)
{
    Replayer replayer(generator.workload());
    for (const serve::Request& request : generator.warm(0)) {
        replayer.run(request, false);
        replayer.probeBuilds(request);
    }
    for (const serve::Request& request : sample)
        replayer.run(request, true);
    return replayer.finish();
}

} // namespace perfbench
