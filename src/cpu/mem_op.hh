/**
 * @file
 * Memory micro-ops and transactions.
 *
 * Workloads execute functionally at dispatch time and emit a stream of
 * MemOps per transaction; the core consumes the stream through the
 * timing model. Loads/stores never span a cache line (the trace
 * recorder splits them).
 */

#ifndef ATOMSIM_CPU_MEM_OP_HH
#define ATOMSIM_CPU_MEM_OP_HH

#include <array>
#include <cstdint>
#include <cstring>
#include <vector>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace atomsim
{

/** Kind of a memory micro-op. */
enum class OpKind : std::uint8_t
{
    Load,         //!< blocking load of [addr, addr+size)
    Store,        //!< store of payload at addr
    Compute,      //!< non-memory work of `cycles` cycles
    AtomicBegin,  //!< Atomic_Begin instruction (Section III-A)
    AtomicEnd,    //!< Atomic_End instruction
};

const char *opName(OpKind kind);

/** One micro-op in a transaction's trace. */
struct MemOp
{
    /** Largest store a single op carries (one SQ word). */
    static constexpr std::uint32_t kMaxStoreBytes = 8;

    OpKind kind;
    Addr addr = 0;
    std::uint32_t size = 0;
    Cycles cycles = 0;  //!< Compute only
    /** Store only: the first `size` bytes are the stored data. */
    std::array<std::uint8_t, kMaxStoreBytes> payload{};

    static MemOp
    load(Addr a, std::uint32_t sz)
    {
        MemOp op;
        op.kind = OpKind::Load;
        op.addr = a;
        op.size = sz;
        return op;
    }

    /** @p sz must be at most kMaxStoreBytes. */
    static MemOp
    store(Addr a, const void *bytes, std::uint32_t sz)
    {
        MemOp op;
        op.kind = OpKind::Store;
        op.addr = a;
        op.size = sz;
        panic_if(sz > kMaxStoreBytes, "store op of %u bytes", sz);
        std::memcpy(op.payload.data(), bytes, sz);
        return op;
    }

    static MemOp
    compute(Cycles c)
    {
        MemOp op;
        op.kind = OpKind::Compute;
        op.cycles = c;
        return op;
    }

    static MemOp
    marker(OpKind kind)
    {
        MemOp op;
        op.kind = kind;
        return op;
    }
};

/** A transaction: the op trace plus the lines it modified. */
struct Transaction
{
    std::uint64_t id = 0;
    /** Owning tenant (0 in single-tenant configs). */
    std::uint16_t tenant = 0;
    /** Workload-defined transaction class (e.g. the KV workload's
     * read/update/insert); latency histograms key on it. */
    std::uint16_t txnClass = 0;
    std::vector<MemOp> ops;
    /** Unique line addresses modified inside the atomic region, in
     * first-write order; the commit protocol flushes these. */
    std::vector<Addr> modifiedLines;
};

} // namespace atomsim

#endif // ATOMSIM_CPU_MEM_OP_HH
