/**
 * @file
 * Counting replacement of the global operator new/new[]/delete set.
 *
 * Include from exactly one translation unit of a bench binary: the
 * definitions replace the binary's allocation functions, so
 * g_allocCount counts every heap allocation the binary makes. The
 * benches read it around a steady-state window to gate
 * zero-allocation paths and report allocations per operation.
 */

#ifndef ATOMSIM_BENCH_ALLOC_COUNT_HH
#define ATOMSIM_BENCH_ALLOC_COUNT_HH

#include <cstdint>
#include <cstdlib>
#include <new>

namespace
{
std::uint64_t g_allocCount = 0;
}

void *
operator new(std::size_t size)
{
    ++g_allocCount;
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    ++g_allocCount;
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }

#endif // ATOMSIM_BENCH_ALLOC_COUNT_HH
