#include "random/gaussian.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <sstream>

#include "core/simd_kernels.hpp"
#include "support/error.hpp"
#include "support/special_math.hpp"

namespace uncertain {
namespace random {

namespace {

/**
 * Marsaglia & Tsang ziggurat tables for the standard normal (128
 * layers). kn[i] is the integer acceptance threshold for layer i,
 * wn[i] the scaling from a 32-bit integer to a deviate, fn[i] the
 * density at the layer boundary. Built once at static-init time from
 * the classic recurrence (Marsaglia & Tsang, "The Ziggurat Method for
 * Generating Random Variables", JSS 2000).
 */
struct ZigguratTables
{
    std::uint32_t kn[128];
    double wn[128];
    double fn[128];

    ZigguratTables()
    {
        const double m1 = 2147483648.0; // 2^31
        double dn = 3.442619855899;
        double tn = dn;
        const double vn = 9.91256303526217e-3;
        const double q = vn / std::exp(-0.5 * dn * dn);
        kn[0] = static_cast<std::uint32_t>((dn / q) * m1);
        kn[1] = 0;
        wn[0] = q / m1;
        wn[127] = dn / m1;
        fn[0] = 1.0;
        fn[127] = std::exp(-0.5 * dn * dn);
        for (int i = 126; i >= 1; --i) {
            dn = std::sqrt(
                -2.0 * std::log(vn / dn + std::exp(-0.5 * dn * dn)));
            kn[i + 1] = static_cast<std::uint32_t>((dn / tn) * m1);
            tn = dn;
            fn[i] = std::exp(-0.5 * dn * dn);
            wn[i] = dn / m1;
        }
    }
};

const ZigguratTables zig;

/** Uniform in (0, 1) from 53 high bits of a 64-bit word. */
inline double
uniOpen(std::uint64_t bits)
{
    return (static_cast<double>(bits >> 11) + 0.5)
           * (1.0 / 9007199254740992.0);
}

/**
 * Ziggurat slow path for |hz| >= kn[iz]: the tail (iz == 0) or the
 * wedge between the rectangle and the density. Taken on ~2.3% of
 * draws.
 */
double
zigguratFix(Rng& rng, std::int32_t hz, std::uint32_t iz)
{
    const double r = 3.442619855899;
    double x = static_cast<double>(hz) * zig.wn[iz];
    for (;;) {
        if (iz == 0) {
            // Marsaglia's exponential-rejection normal tail.
            double xt, yt;
            do {
                xt = -std::log(uniOpen(rng.nextU64())) / r;
                yt = -std::log(uniOpen(rng.nextU64()));
            } while (yt + yt < xt * xt);
            return hz > 0 ? r + xt : -(r + xt);
        }
        if (zig.fn[iz]
                + uniOpen(rng.nextU64()) * (zig.fn[iz - 1] - zig.fn[iz])
            < std::exp(-0.5 * x * x))
            return x;
        hz = static_cast<std::int32_t>(
            static_cast<std::uint32_t>(rng.nextU64()));
        iz = static_cast<std::uint32_t>(hz) & 127u;
        // Magnitude via unsigned negation: |INT32_MIN| overflows int.
        const std::uint32_t mag =
            hz < 0 ? ~static_cast<std::uint32_t>(hz) + 1u
                   : static_cast<std::uint32_t>(hz);
        if (mag < zig.kn[iz])
            return static_cast<double>(hz) * zig.wn[iz];
        x = static_cast<double>(hz) * zig.wn[iz];
    }
}

} // namespace

Gaussian::Gaussian(double mu, double sigma) : mu_(mu), sigma_(sigma)
{
    UNCERTAIN_REQUIRE(std::isfinite(mu), "Gaussian requires finite mu");
    UNCERTAIN_REQUIRE(std::isfinite(sigma),
                      "Gaussian requires finite sigma");
    UNCERTAIN_REQUIRE(sigma > 0.0, "Gaussian requires sigma > 0");
}

double
Gaussian::standardSample(Rng& rng)
{
    double u1 = rng.nextDoubleOpen();
    double u2 = rng.nextDouble();
    return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
}

double
Gaussian::sample(Rng& rng) const
{
    return mu_ + sigma_ * standardSample(rng);
}

void
Gaussian::sampleMany(Rng& rng, double* out, std::size_t n) const
{
    // 128-layer ziggurat (Marsaglia & Tsang): ~97.7% of draws are one
    // integer compare plus one multiply; the wedge/tail slow path is
    // out of line. Raw 64-bit words are pulled through a stack buffer
    // via fillU64, so the fast path never crosses the Rng facade per
    // draw, and the accept test + accepted-value arithmetic run
    // vectorized over the whole buffer (simd::zigguratAccept).
    // Rejected indices come back in ascending order and are fixed up
    // with the scalar tail/wedge routine in element order — the same
    // order the old per-element loop called it — so the Rng word
    // stream and every output bit are unchanged by the vectorization.
    // Rejection and buffering consume a data-dependent number of
    // words, which is fine here: the bulk contract is "same law as
    // sample(), deterministic in the Rng state", not "same stream
    // schedule" (the KS conformance suite pins the law).
    constexpr std::size_t kBuf = 1024;
    std::uint64_t buf[kBuf];
    std::uint32_t rejects[kBuf];
    const simd::Isa isa = simd::activeIsa();
    for (std::size_t i = 0; i < n;) {
        const std::size_t have = std::min(kBuf, n - i);
        rng.fillU64(buf, have);
        const std::size_t nRejects = simd::zigguratAccept(
            isa, buf, have, zig.kn, zig.wn, mu_, sigma_, out + i,
            rejects);
        for (std::size_t r = 0; r < nRejects; ++r) {
            const std::size_t idx = rejects[r];
            const auto hz = static_cast<std::int32_t>(
                static_cast<std::uint32_t>(buf[idx]));
            const std::uint32_t iz =
                static_cast<std::uint32_t>(hz) & 127u;
            out[i + idx] = mu_ + sigma_ * zigguratFix(rng, hz, iz);
        }
        i += have;
    }
}

void
Gaussian::standardSampleMany(Rng& rng, double* out, std::size_t n)
{
    static const Gaussian standard(0.0, 1.0);
    standard.sampleMany(rng, out, n);
}

std::string
Gaussian::name() const
{
    std::ostringstream out;
    out << "Gaussian(" << mu_ << ", " << sigma_ << ")";
    return out.str();
}

double
Gaussian::pdf(double x) const
{
    double z = (x - mu_) / sigma_;
    return math::normalPdf(z) / sigma_;
}

double
Gaussian::logPdf(double x) const
{
    double z = (x - mu_) / sigma_;
    return -0.5 * z * z - std::log(sigma_)
           - 0.91893853320467274178; // log(sqrt(2*pi))
}

void
Gaussian::logPdfMany(const double* xs, double* out,
                     std::size_t n) const
{
    // Same arithmetic in the same order as logPdf with only the
    // log(sigma) call hoisted; per-element values are bit-identical.
    const double logSigma = std::log(sigma_);
    for (std::size_t i = 0; i < n; ++i) {
        double z = (xs[i] - mu_) / sigma_;
        out[i] = -0.5 * z * z - logSigma - 0.91893853320467274178;
    }
}

double
Gaussian::cdf(double x) const
{
    return math::normalCdf((x - mu_) / sigma_);
}

double
Gaussian::quantile(double p) const
{
    return mu_ + sigma_ * math::normalQuantile(p);
}

double
Gaussian::mean() const
{
    return mu_;
}

double
Gaussian::variance() const
{
    return sigma_ * sigma_;
}

} // namespace random
} // namespace uncertain
