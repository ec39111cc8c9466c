#include "serve/protocol.hpp"

#include <bit>
#include <cstring>

namespace uncertain {
namespace serve {
namespace {

/**
 * Little-endian writer into a frame sized up front: each field lands
 * at the next fixed offset, with no per-byte growth checks.
 */
class Writer
{
  public:
    explicit Writer(std::uint8_t* out) : out_(out) {}

    void
    u16(std::uint16_t v)
    {
        put(v, 2);
    }

    void
    u32(std::uint32_t v)
    {
        put(v, 4);
    }

    void
    u64(std::uint64_t v)
    {
        put(v, 8);
    }

    void
    f64(double v)
    {
        u64(std::bit_cast<std::uint64_t>(v));
    }

    /** The doubles of @p values, one after another. */
    void
    f64s(const std::vector<double>& values)
    {
        if constexpr (std::endian::native == std::endian::little) {
            if (!values.empty()) {
                std::memcpy(out_, values.data(),
                            values.size() * sizeof(double));
                out_ += values.size() * sizeof(double);
            }
        } else {
            for (double v : values)
                f64(v);
        }
    }

  private:
    void
    put(std::uint64_t v, int bytes)
    {
        for (int i = 0; i < bytes; ++i)
            out_[i] = static_cast<std::uint8_t>(v >> (8 * i));
        out_ += bytes;
    }

    std::uint8_t* out_;
};

/** Bounds-checked little-endian reader over a byte span. */
class Reader
{
  public:
    Reader(const std::uint8_t* data, std::size_t size)
        : data_(data), size_(size)
    {
    }

    bool
    u16(std::uint16_t& v)
    {
        if (size_ - pos_ < 2)
            return false;
        v = static_cast<std::uint16_t>(
            data_[pos_] | (std::uint16_t{data_[pos_ + 1]} << 8));
        pos_ += 2;
        return true;
    }

    bool
    u32(std::uint32_t& v)
    {
        if (size_ - pos_ < 4)
            return false;
        v = 0;
        for (int i = 0; i < 4; ++i)
            v |= std::uint32_t{data_[pos_ + i]} << (8 * i);
        pos_ += 4;
        return true;
    }

    bool
    u64(std::uint64_t& v)
    {
        if (size_ - pos_ < 8)
            return false;
        v = 0;
        for (int i = 0; i < 8; ++i)
            v |= std::uint64_t{data_[pos_ + i]} << (8 * i);
        pos_ += 8;
        return true;
    }

    bool
    f64(double& v)
    {
        std::uint64_t bits = 0;
        if (!u64(bits))
            return false;
        std::memcpy(&v, &bits, sizeof v);
        return true;
    }

    /** Fill @p values (already sized) with the next doubles. */
    bool
    f64s(std::vector<double>& values)
    {
        if constexpr (std::endian::native == std::endian::little) {
            const std::size_t bytes = values.size() * sizeof(double);
            if (size_ - pos_ < bytes)
                return false;
            if (bytes > 0)
                std::memcpy(values.data(), data_ + pos_, bytes);
            pos_ += bytes;
            return true;
        } else {
            for (double& v : values) {
                if (!f64(v))
                    return false;
            }
            return true;
        }
    }

    bool
    done() const
    {
        return pos_ == size_;
    }

  private:
    const std::uint8_t* data_;
    std::size_t size_;
    std::size_t pos_ = 0;
};

/** Payload bytes of a request / response before its doubles. */
constexpr std::size_t kRequestFixedBytes = 44;
constexpr std::size_t kResponseFixedBytes = 48;

} // namespace

std::vector<std::uint8_t>
encodeRequest(const Request& request)
{
    const std::size_t payload =
        kRequestFixedBytes + 8 * request.params.size();
    std::vector<std::uint8_t> frame(4 + payload);
    Writer w(frame.data());
    w.u32(static_cast<std::uint32_t>(payload));
    w.u32(kRequestMagic);
    w.u16(kProtocolVersion);
    w.u16(static_cast<std::uint16_t>(request.opcode));
    w.u64(request.tenantId);
    w.u64(request.requestId);
    w.u32(request.modelId);
    w.u32(request.sampleCount);
    w.f64(request.threshold);
    w.u32(static_cast<std::uint32_t>(request.params.size()));
    w.f64s(request.params);
    return frame;
}

std::vector<std::uint8_t>
encodeResponse(const Response& response)
{
    const std::size_t payload =
        kResponseFixedBytes + 8 * response.samples.size();
    std::vector<std::uint8_t> frame(4 + payload);
    Writer w(frame.data());
    w.u32(static_cast<std::uint32_t>(payload));
    w.u32(kResponseMagic);
    w.u16(kProtocolVersion);
    w.u16(static_cast<std::uint16_t>(response.status));
    w.u16(static_cast<std::uint16_t>(response.opcode));
    w.u16(response.decision);
    w.u64(response.tenantId);
    w.u64(response.requestId);
    w.f64(response.value);
    w.u64(response.samplesUsed);
    w.u32(static_cast<std::uint32_t>(response.samples.size()));
    w.f64s(response.samples);
    return frame;
}

Status
decodeRequest(const std::uint8_t* data, std::size_t size, Request& out)
{
    out = Request{};
    Reader r(data, size);
    std::uint32_t magic = 0;
    std::uint16_t version = 0;
    std::uint16_t opcode = 0;
    if (!r.u32(magic) || magic != kRequestMagic)
        return Status::Malformed;
    if (!r.u16(version) || version != kProtocolVersion)
        return Status::Malformed;
    if (!r.u16(opcode))
        return Status::Malformed;
    if (!r.u64(out.tenantId) || !r.u64(out.requestId))
        return Status::Malformed;
    // Ids are recovered before the opcode is validated so error
    // replies from here down can still echo them.
    if (opcode < static_cast<std::uint16_t>(Opcode::Pr)
        || opcode > static_cast<std::uint16_t>(Opcode::Advise)) {
        return Status::BadRequest;
    }
    out.opcode = static_cast<Opcode>(opcode);
    std::uint32_t paramCount = 0;
    if (!r.u32(out.modelId) || !r.u32(out.sampleCount)
        || !r.f64(out.threshold) || !r.u32(paramCount)) {
        return Status::Malformed;
    }
    if (paramCount > kMaxParams)
        return Status::BadRequest;
    if (out.sampleCount > kMaxSampleCount)
        return Status::BadRequest;
    if (out.opcode == Opcode::TakeSamples
        && out.sampleCount > kMaxSamplesPerReply) {
        return Status::BadRequest;
    }
    out.params.resize(paramCount);
    if (!r.f64s(out.params))
        return Status::Malformed;
    // Trailing bytes mean the sender's framing is out of step with
    // the payload it wrote; treat that as malformed rather than
    // silently ignoring the residue.
    if (!r.done())
        return Status::Malformed;
    return Status::Ok;
}

bool
decodeResponse(const std::uint8_t* data, std::size_t size,
               Response& out)
{
    out = Response{};
    Reader r(data, size);
    std::uint32_t magic = 0;
    std::uint16_t version = 0;
    std::uint16_t status = 0;
    std::uint16_t opcode = 0;
    std::uint32_t sampleCount = 0;
    if (!r.u32(magic) || magic != kResponseMagic)
        return false;
    if (!r.u16(version) || version != kProtocolVersion)
        return false;
    if (!r.u16(status)
        || status > static_cast<std::uint16_t>(Status::ShuttingDown))
        return false;
    out.status = static_cast<Status>(status);
    if (!r.u16(opcode))
        return false;
    out.opcode = static_cast<Opcode>(opcode);
    if (!r.u16(out.decision) || !r.u64(out.tenantId)
        || !r.u64(out.requestId) || !r.f64(out.value)
        || !r.u64(out.samplesUsed) || !r.u32(sampleCount)) {
        return false;
    }
    if (sampleCount > kMaxSamplesPerReply)
        return false;
    out.samples.resize(sampleCount);
    return r.f64s(out.samples) && r.done();
}

} // namespace serve
} // namespace uncertain
