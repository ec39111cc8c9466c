/**
 * @file
 * Shared declarations of the phone-fleet serving benchmark: the three
 * workloads, the seeded request generator, and the single-threaded
 * per-layer replay used by traced runs (replay.cpp).
 */

#ifndef PERFBENCH_FLEETBENCH_HPP
#define PERFBENCH_FLEETBENCH_HPP

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "serve/serve.hpp"

namespace perfbench {

namespace serve = uncertain::serve;
using Clock = std::chrono::steady_clock;

enum class Workload
{
    FleetShared, //!< closed loop, 32 phones, one shared model geometry
    FleetFresh,  //!< closed loop, every request carries its own fix pair
    BulkDraws,   //!< closed loop, 4 outstanding bulk draws on a deep chain
};

/** Phones of the closed-loop fleet and its Pr:Advise mix. */
constexpr std::size_t kSharedPhones = 32;
constexpr std::uint64_t kAdviseEvery = 8; //!< 7 Pr : 1 Advise

/** fleet_fresh: outstanding requests, two per server worker. */
constexpr std::size_t kFreshPhones = 4;

/** bulk_draws: outstanding requests (two per server worker), chain
 *  depth and draw sizes. */
constexpr std::size_t kBulkPhones = 4;
constexpr double kBulkDepth = 64.0;
constexpr std::uint32_t kBulkTake = 8192;
constexpr std::uint32_t kBulkExpect = 262144;

/** SplitMix64 finalizer: the benchmark's only source of input bits. */
std::uint64_t mix64(std::uint64_t z);

/**
 * Deterministic request source of one workload. Every request is a
 * pure function of (seed, phone, k), so a seed names one input set.
 */
class Generator
{
  public:
    Generator(Workload workload, std::uint64_t seed);

    Workload workload() const { return workload_; }

    /** Virtual phones, each with one request outstanding. */
    std::size_t phones() const;

    /** Tenant id of phone @p phone. */
    std::uint64_t tenantOf(std::size_t phone) const
    {
        return tenantBase_ + phone;
    }

    /** The @p k-th request of phone @p phone. */
    serve::Request request(std::size_t phone, std::uint64_t k) const;

    /** Requests that warm a fresh server: instance builds, compiles. */
    std::vector<serve::Request> warm(std::uint64_t rep) const;

    /** Seeded choice of the replies checked against the reference. */
    bool sampled(std::uint64_t tenant, std::uint64_t requestId,
                 std::uint64_t period) const;

  private:
    std::vector<double> freshFixPair(std::uint64_t index) const;

    Workload workload_;
    std::uint64_t seed_;
    std::uint64_t tenantBase_;
};

/** Server configuration under load, and the reference configuration
 *  whose replies every run must reproduce bit for bit. */
serve::ServerOptions loadOptions(Workload workload);
serve::ServerOptions referenceOptions();

/** Per-layer means of the single-threaded replay (trace runs). Row
 *  fields are microseconds per replayed request. */
struct ReplayResult
{
    std::size_t requests = 0;

    // Rows of the per-request table (mean us per request).
    double graphBuildUs = 0.0;   //!< gps::speedFromFixes
    double sirBuildUs = 0.0;     //!< gps::improveSpeed as a whole
    double proposalUs = 0.0;     //!< SIR pool draw
    double logPdfUs = 0.0;       //!< prior logPdfMany
    double resampleUs = 0.0;     //!< normalize + index draw
    double planResolveUs = 0.0;  //!< PlanCache::planFor (hit or compile)
    double executeUs = 0.0;      //!< BatchSampler plan-direct queries

    // Per-operation costs.
    double lookupNs = 0.0;       //!< timed PlanCache hit
    double compileUs = 0.0;      //!< timed BatchPlan::compile
    double jitCompileUs = 0.0;   //!< PlanStats::jitCompileNanos / 1000
    double prUs = 0.0;           //!< evaluateConditionPlan, Pr requests
    double adviseUs = 0.0;       //!< evaluateConditionPlan, Advise
    double takeNsPerSample = 0.0;
    double fillNsPerSample = 0.0;
    double jitStripFrac = 0.0;
    double gaussianFillNs = 0.0; //!< Gaussian::sampleMany per draw
    double rngFillNs = 0.0;      //!< Rng::fillU64 per word

    // Means per GPS model build over every build the replay timed: the
    // warm-up's, more of each warm-up model, and those of requests that
    // built their own model. Same phases as the rows above.
    std::size_t builds = 0;
    double buildGraphUs = 0.0;
    double buildSirUs = 0.0;
    double buildProposalUs = 0.0;
    double buildLogPdfUs = 0.0;
    double buildResampleUs = 0.0;
    double ess = 0.0;            //!< Kish ESS of the SIR pool
};

/** Replay @p sample single-threaded through the layers' public
 *  functions, mirroring what a server worker does per request, after
 *  the workload's warm-up requests and repeated builds of their GPS
 *  models (what set-up costs). */
ReplayResult replay(const Generator& generator,
                    const std::vector<serve::Request>& sample);

} // namespace perfbench

#endif // PERFBENCH_FLEETBENCH_HPP
