#include "core/jit/jit_buffer.hpp"

#include <cstring>

#if defined(__unix__) || defined(__APPLE__)
#define UNCERTAIN_HAVE_MMAP 1
#include <sys/mman.h>
#include <unistd.h>
#else
#define UNCERTAIN_HAVE_MMAP 0
#endif

namespace uncertain {
namespace jit {

ExecBuffer::~ExecBuffer()
{
#if UNCERTAIN_HAVE_MMAP
    if (mem_ != nullptr)
        ::munmap(mem_, mapped_);
#endif
}

std::unique_ptr<ExecBuffer>
ExecBuffer::seal(const std::uint8_t* code, std::size_t size)
{
#if UNCERTAIN_HAVE_MMAP
    if (code == nullptr || size == 0)
        return nullptr;
    const long page = ::sysconf(_SC_PAGESIZE);
    if (page <= 0)
        return nullptr;
    const std::size_t pageSize = static_cast<std::size_t>(page);
    const std::size_t mapped =
        (size + pageSize - 1) / pageSize * pageSize;
    // Write phase: the mapping is never executable while writable.
    void* mem = ::mmap(nullptr, mapped, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (mem == MAP_FAILED)
        return nullptr;
    std::memcpy(mem, code, size);
    // Execute phase: drop write before the first call ever happens.
    if (::mprotect(mem, mapped, PROT_READ | PROT_EXEC) != 0) {
        ::munmap(mem, mapped);
        return nullptr;
    }
    return std::unique_ptr<ExecBuffer>(
        new ExecBuffer(mem, mapped, size));
#else
    (void)code;
    (void)size;
    return nullptr;
#endif
}

} // namespace jit
} // namespace uncertain
