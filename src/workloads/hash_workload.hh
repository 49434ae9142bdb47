/**
 * @file
 * Hash micro-benchmark: atomic insert/delete of entries in per-core
 * open-chaining hash tables (Table II of the paper).
 */

#ifndef ATOMSIM_WORKLOADS_HASH_WORKLOAD_HH
#define ATOMSIM_WORKLOADS_HASH_WORKLOAD_HH

#include <vector>

#include "workloads/heap.hh"
#include "workloads/workload.hh"

namespace atomsim
{

/**
 * Per core: a bucket array of node pointers; nodes hold
 * {key, next, payload[entryBytes]}. A transaction is a lookup followed
 * by an atomic insert or an atomic delete (50/50).
 */
class HashWorkload : public Workload
{
  public:
    explicit HashWorkload(const MicroParams &params);

    std::string name() const override { return "hash"; }
    void init(DirectAccessor &mem, PersistentHeap &heap,
              std::uint32_t num_cores) override;
    void runTransaction(CoreId core, Accessor &mem, Random &rng) override;
    std::string checkConsistency(DirectAccessor &mem,
                                 std::uint32_t num_cores) override;

    static constexpr std::uint32_t kBuckets = 64;

  private:
    struct PerCore
    {
        Addr buckets = 0;   //!< array of kBuckets node pointers
        std::uint64_t nextKey = 0;
    };

    Addr nodeBytes() const;
    void insert(CoreId core, Accessor &mem, std::uint64_t key);
    bool remove(CoreId core, Accessor &mem, std::uint64_t key);
    bool lookup(CoreId core, Accessor &mem, std::uint64_t key);

    MicroParams _params;
    PersistentHeap *_heap = nullptr;
    std::vector<PerCore> _state;
    /** One payload's words, reused by every insert. */
    std::vector<std::uint64_t> _payloadWords;
};

} // namespace atomsim

#endif // ATOMSIM_WORKLOADS_HASH_WORKLOAD_HH
