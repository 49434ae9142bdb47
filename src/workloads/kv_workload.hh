/**
 * @file
 * KV serving workload: YCSB-style zipfian point operations over
 * per-tenant slot tables.
 *
 * Models a multi-tenant key-value serving tier on persistent memory:
 * each tenant owns a contiguous block of cores (SystemConfig::tenantOf)
 * and an independent slot table in a disjoint address range; cores
 * issue a read / update / insert mix whose key popularity follows a
 * zipfian distribution (the YCSB default, theta = 0.99). Updates and
 * inserts are atomic durable regions; reads are log-free. Transactions
 * are tagged with (tenant, class) so the Runner's latency histograms
 * split p50/p95/p99 per tenant and per transaction class.
 */

#ifndef ATOMSIM_WORKLOADS_KV_WORKLOAD_HH
#define ATOMSIM_WORKLOADS_KV_WORKLOAD_HH

#include <cstdint>
#include <vector>

#include "workloads/heap.hh"
#include "workloads/workload.hh"

namespace atomsim
{

/**
 * Zipfian rank generator (Gray et al.'s rejection-free method, as used
 * by YCSB): next() draws a rank in [0, n) where rank 0 is the hottest
 * key and P(rank) ~ 1 / (rank+1)^theta. The zeta(n, theta) prefix sum
 * is computed once at construction (O(n)); draws are O(1). theta = 0
 * degenerates to uniform.
 */
class ZipfianGenerator
{
  public:
    ZipfianGenerator(std::uint64_t n, double theta);

    /** Next rank in [0, n); rank 0 is the hottest. */
    std::uint64_t next(Random &rng) const;

    std::uint64_t n() const { return _n; }
    double theta() const { return _theta; }

  private:
    std::uint64_t _n;
    double _theta;
    double _alpha = 0;
    double _zetan = 0;
    double _eta = 0;
};

/** Mix/shape parameters of the KV serving workload. */
struct KvParams
{
    /** Value bytes per key (multiple of 8). */
    std::uint32_t valueBytes = 128;
    /** Keys preloaded per tenant; the zipfian draws over these. */
    std::uint32_t keysPerTenant = 1024;
    /** Insert capacity preallocated per core; once a core exhausts
     * its budget further insert draws fall back to updates. */
    std::uint32_t insertsPerCore = 16;
    /** Transactions each core executes (consumed by the harness). */
    std::uint32_t txnsPerCore = 40;
    /** Zipfian skew (YCSB default 0.99); 0 = uniform. */
    double theta = 0.99;
    /** Operation mix; insert fraction is the remainder. */
    double readFraction = 0.5;
    double updateFraction = 0.4;
    /**
     * Tenant count; MUST equal SystemConfig::numTenants of the machine
     * the workload runs on (the core->tenant map is shared). 0 = one
     * tenant owning every core.
     */
    std::uint32_t numTenants = 0;
    std::uint64_t seed = 42;
};

/**
 * Per tenant: a flat slot table; slot s holds key s as
 * {keyTag = key+1 @0, version @8, value @64}. The value of (tenant,
 * key, version) is a fixed word pattern, and version bumps atomically
 * with the value rewrite, so any torn update or insert is detectable
 * by checkConsistency. Tenant tables live in disjoint address ranges
 * by construction (per-core heap arenas).
 */
class KvWorkload : public Workload
{
  public:
    /** Transaction classes as tagged on each txn (latency keys). */
    static constexpr std::uint16_t kClassRead = 0;
    static constexpr std::uint16_t kClassUpdate = 1;
    static constexpr std::uint16_t kClassInsert = 2;
    static constexpr std::uint32_t kNumClasses = 3;

    /** Class name for reports ("read" / "update" / "insert"). */
    static const char *className(std::uint16_t cls);

    explicit KvWorkload(const KvParams &params);

    std::string name() const override { return "kv"; }
    void init(DirectAccessor &mem, PersistentHeap &heap,
              std::uint32_t num_cores) override;
    void runTransaction(CoreId core, Accessor &mem, Random &rng) override;
    std::string checkConsistency(DirectAccessor &mem,
                                 std::uint32_t num_cores) override;

  private:
    struct Tenant
    {
        Addr table = 0;            //!< slot array base
        std::uint32_t firstCore = 0;
        std::uint32_t numCores = 0;
        std::uint32_t slots = 0;   //!< keysPerTenant + insert capacity
    };

    struct PerCore
    {
        std::uint32_t inserted = 0;  //!< inserts executed so far
    };

    std::uint32_t tenantCount() const;
    std::uint32_t tenantOfCore(CoreId core) const;
    Addr slotAddr(const Tenant &t, std::uint64_t key) const;
    std::uint32_t slotBytes() const;

    void writeValue(Accessor &mem, Addr value_addr, std::uint32_t tenant,
                    std::uint64_t key, std::uint64_t version);
    void doRead(const Tenant &t, Accessor &mem, std::uint64_t key);
    void doUpdate(const Tenant &t, std::uint32_t tenant, Accessor &mem,
                  std::uint64_t key);
    void doInsert(const Tenant &t, std::uint32_t tenant, CoreId core,
                  Accessor &mem);

    KvParams _params;
    std::uint32_t _numCores = 0;
    std::vector<Tenant> _tenants;
    std::vector<PerCore> _state;
    std::vector<ZipfianGenerator> _zipf;  //!< one element, shared n
    /** One value's words, reused by every read and write (transaction
     * generation runs on one thread). */
    std::vector<std::uint64_t> _valueWords;
};

} // namespace atomsim

#endif // ATOMSIM_WORKLOADS_KV_WORKLOAD_HH
