#include "workloads/hash_workload.hh"

#include <vector>

#include "sim/logging.hh"

namespace atomsim
{

namespace
{

/** Node field offsets: key @0, next @8, payload @64 (line-aligned). */
constexpr Addr kKeyOff = 0;
constexpr Addr kNextOff = 8;
constexpr Addr kPayloadOff = kLineBytes;

std::uint64_t
bucketOf(std::uint64_t key)
{
    // Cheap mix; the 10-cycle compute() models the real hash cost.
    key ^= key >> 33;
    key *= 0xff51afd7ed558ccdULL;
    key ^= key >> 33;
    return key % HashWorkload::kBuckets;
}

/** Store @p key's payload pattern at @p payload, staged in @p words
 * (one payload long; reused across calls). */
void
fillPayload(Accessor &mem, Addr payload, std::vector<std::uint64_t> &words,
            std::uint64_t key)
{
    for (std::size_t i = 0; i < words.size(); ++i)
        words[i] = key * 0x9e3779b97f4a7c15ULL + i;
    mem.storeBytes(payload, words.size() * 8, words.data());
}

} // namespace

HashWorkload::HashWorkload(const MicroParams &params)
    : _params(params), _payloadWords(params.entryBytes / 8)
{
}

Addr
HashWorkload::nodeBytes() const
{
    return kPayloadOff + _params.entryBytes;
}

void
HashWorkload::init(DirectAccessor &mem, PersistentHeap &heap,
                   std::uint32_t num_cores)
{
    _heap = &heap;
    _state.assign(num_cores, PerCore{});
    Random rng(_params.seed);
    for (std::uint32_t c = 0; c < num_cores; ++c) {
        PerCore &pc = _state[c];
        pc.buckets = heap.alloc(c, kBuckets * 8, kLineBytes);
        for (std::uint32_t b = 0; b < kBuckets; ++b)
            mem.store64(pc.buckets + b * 8, 0);
        pc.nextKey = std::uint64_t(c) << 32;
        for (std::uint32_t i = 0; i < _params.initialItems; ++i)
            insert(c, mem, pc.nextKey++);
    }
    (void)rng;
}

void
HashWorkload::insert(CoreId core, Accessor &mem, std::uint64_t key)
{
    PerCore &pc = _state[core];
    const Addr head_slot = pc.buckets + bucketOf(key) * 8;
    mem.compute(10);  // hash computation
    const Addr head = mem.load64(head_slot);

    const Addr node = _heap->alloc(core, nodeBytes());
    mem.atomicBegin();
    mem.store64(node + kKeyOff, key);
    mem.store64(node + kNextOff, head);
    fillPayload(mem, node + kPayloadOff, _payloadWords, key);
    mem.store64(head_slot, node);
    mem.atomicEnd();
}

bool
HashWorkload::remove(CoreId core, Accessor &mem, std::uint64_t key)
{
    PerCore &pc = _state[core];
    const Addr head_slot = pc.buckets + bucketOf(key) * 8;
    mem.compute(10);

    Addr prev_slot = head_slot;
    Addr node = mem.load64(head_slot);
    while (node != 0) {
        if (mem.load64(node + kKeyOff) == key) {
            const Addr next = mem.load64(node + kNextOff);
            mem.atomicBegin();
            mem.store64(prev_slot, next);
            // Poison the unlinked node's key so a torn unlink is
            // detectable (and the payload is dead).
            mem.store64(node + kKeyOff, ~std::uint64_t(0));
            mem.atomicEnd();
            _heap->free(core, node, nodeBytes());
            return true;
        }
        prev_slot = node + kNextOff;
        node = mem.load64(node + kNextOff);
    }
    return false;
}

bool
HashWorkload::lookup(CoreId core, Accessor &mem, std::uint64_t key)
{
    PerCore &pc = _state[core];
    mem.compute(10);
    Addr node = mem.load64(pc.buckets + bucketOf(key) * 8);
    while (node != 0) {
        if (mem.load64(node + kKeyOff) == key)
            return true;
        node = mem.load64(node + kNextOff);
    }
    return false;
}

void
HashWorkload::runTransaction(CoreId core, Accessor &mem, Random &rng)
{
    PerCore &pc = _state[core];
    // A search precedes each mutation (Table II: search + atomic
    // insert/delete mix).
    const std::uint64_t base = std::uint64_t(core) << 32;
    lookup(core, mem, base + rng.below(pc.nextKey - base + 1));

    if (rng.chance(0.5)) {
        insert(core, mem, pc.nextKey++);
    } else {
        // Delete a random previously-inserted key (may already be
        // gone; then fall back to an insert so work is comparable).
        const std::uint64_t key = base + rng.below(pc.nextKey - base);
        if (!remove(core, mem, key))
            insert(core, mem, pc.nextKey++);
    }
}

std::string
HashWorkload::checkConsistency(DirectAccessor &mem,
                               std::uint32_t num_cores)
{
    for (std::uint32_t c = 0; c < num_cores; ++c) {
        const PerCore &pc = _state[c];
        if (pc.buckets == 0)
            continue;
        for (std::uint32_t b = 0; b < kBuckets; ++b) {
            Addr node = mem.load64(pc.buckets + b * 8);
            std::uint32_t steps = 0;
            while (node != 0) {
                const std::uint64_t key = mem.load64(node + kKeyOff);
                if (key == ~std::uint64_t(0)) {
                    return faultf("dangling pointer to an unlinked node:"
                                  " core=%u bucket=%u node=0x%llx",
                                  c, b, (unsigned long long)node);
                }
                if (bucketOf(key) != b) {
                    return faultf(
                        "key in the wrong bucket (torn insert?): core=%u "
                        "bucket=%u node=0x%llx key=0x%llx belongs_in=%llu",
                        c, b, (unsigned long long)node,
                        (unsigned long long)key,
                        (unsigned long long)bucketOf(key));
                }
                if ((key >> 32) != c) {
                    return faultf("key from another core's table: core=%u "
                                  "bucket=%u node=0x%llx key=0x%llx",
                                  c, b, (unsigned long long)node,
                                  (unsigned long long)key);
                }
                // Payload pattern must match the key entirely.
                std::vector<std::uint64_t> words(_params.entryBytes / 8);
                mem.loadBytes(node + kPayloadOff, _params.entryBytes,
                              words.data());
                for (std::size_t i = 0; i < words.size(); ++i) {
                    if (words[i] != key * 0x9e3779b97f4a7c15ULL + i) {
                        return faultf(
                            "torn payload: core=%u bucket=%u node=0x%llx "
                            "key=0x%llx word=%zu addr=0x%llx "
                            "expected=0x%llx found=0x%llx",
                            c, b, (unsigned long long)node,
                            (unsigned long long)key, i,
                            (unsigned long long)(node + kPayloadOff +
                                                 i * 8),
                            (unsigned long long)(
                                key * 0x9e3779b97f4a7c15ULL + i),
                            (unsigned long long)words[i]);
                    }
                }
                node = mem.load64(node + kNextOff);
                if (++steps > 1u << 20) {
                    return faultf("cycle in a bucket chain: core=%u "
                                  "bucket=%u", c, b);
                }
            }
        }
    }
    return "";
}

} // namespace atomsim
