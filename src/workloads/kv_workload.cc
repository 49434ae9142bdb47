#include "workloads/kv_workload.hh"

#include <cmath>
#include <vector>

#include "sim/logging.hh"

namespace atomsim
{

namespace
{

/** Slot field offsets: keyTag @0, version @8, value @64. */
constexpr Addr kKeyTagOff = 0;
constexpr Addr kVersionOff = 8;
constexpr Addr kValueOff = kLineBytes;

/** First word of the value pattern of (tenant, key, version). */
std::uint64_t
valueSeed(std::uint32_t tenant, std::uint64_t key, std::uint64_t version)
{
    std::uint64_t x = (std::uint64_t(tenant) << 48) ^
                      key * 0x9e3779b97f4a7c15ULL ^
                      version * 0xc2b2ae3d27d4eb4fULL;
    x ^= x >> 29;
    return x;
}

double
zeta(std::uint64_t n, double theta)
{
    double sum = 0;
    for (std::uint64_t i = 0; i < n; ++i)
        sum += 1.0 / std::pow(double(i + 1), theta);
    return sum;
}

} // namespace

ZipfianGenerator::ZipfianGenerator(std::uint64_t n, double theta)
    : _n(n), _theta(theta)
{
    panic_if(n == 0, "zipfian over an empty key space");
    if (_theta <= 0) {
        _theta = 0;
        return;  // uniform; next() special-cases this
    }
    _zetan = zeta(n, _theta);
    _alpha = 1.0 / (1.0 - _theta);
    const double zeta2 = zeta(2, _theta);
    _eta = (1.0 - std::pow(2.0 / double(n), 1.0 - _theta)) /
           (1.0 - zeta2 / _zetan);
}

std::uint64_t
ZipfianGenerator::next(Random &rng) const
{
    if (_theta == 0)
        return rng.below(_n);
    const double u = rng.unit();
    const double uz = u * _zetan;
    if (uz < 1.0)
        return 0;
    if (uz < 1.0 + std::pow(0.5, _theta))
        return 1;
    auto rank = std::uint64_t(double(_n) *
                              std::pow(_eta * u - _eta + 1.0, _alpha));
    return rank >= _n ? _n - 1 : rank;
}

const char *
KvWorkload::className(std::uint16_t cls)
{
    switch (cls) {
      case kClassRead:
        return "read";
      case kClassUpdate:
        return "update";
      case kClassInsert:
        return "insert";
    }
    return "?";
}

KvWorkload::KvWorkload(const KvParams &params)
    : _params(params), _valueWords(params.valueBytes / 8)
{
    panic_if(_params.valueBytes == 0 || _params.valueBytes % 8 != 0,
             "kv valueBytes must be a nonzero multiple of 8");
    panic_if(_params.keysPerTenant == 0, "kv keysPerTenant must be > 0");
    panic_if(_params.readFraction + _params.updateFraction > 1.0 + 1e-9,
             "kv read + update fractions exceed 1");
}

std::uint32_t
KvWorkload::tenantCount() const
{
    return _params.numTenants ? _params.numTenants : 1;
}

std::uint32_t
KvWorkload::tenantOfCore(CoreId core) const
{
    // Must mirror SystemConfig::tenantOf: contiguous balanced blocks.
    return std::uint32_t(std::uint64_t(core) * tenantCount() / _numCores);
}

std::uint32_t
KvWorkload::slotBytes() const
{
    const std::uint32_t value_lines =
        (_params.valueBytes + kLineBytes - 1) / kLineBytes;
    return std::uint32_t(kValueOff) + value_lines * kLineBytes;
}

Addr
KvWorkload::slotAddr(const Tenant &t, std::uint64_t key) const
{
    return t.table + key * slotBytes();
}

void
KvWorkload::writeValue(Accessor &mem, Addr value_addr,
                       std::uint32_t tenant, std::uint64_t key,
                       std::uint64_t version)
{
    std::vector<std::uint64_t> &words = _valueWords;
    const std::uint64_t seed = valueSeed(tenant, key, version);
    for (std::size_t i = 0; i < words.size(); ++i)
        words[i] = seed + i;
    mem.storeBytes(value_addr, _params.valueBytes, words.data());
}

void
KvWorkload::init(DirectAccessor &mem, PersistentHeap &heap,
                 std::uint32_t num_cores)
{
    const std::uint32_t nt = tenantCount();
    panic_if(num_cores < nt, "kv workload: fewer cores (%u) than "
             "tenants (%u)", num_cores, nt);
    _numCores = num_cores;
    _state.assign(num_cores, PerCore{});
    _tenants.assign(nt, Tenant{});
    _zipf.clear();
    _zipf.emplace_back(_params.keysPerTenant, _params.theta);

    for (std::uint32_t t = 0; t < nt; ++t) {
        Tenant &ten = _tenants[t];
        // Invert tenantOf: tenant t owns cores [ceil(t*N/T),
        // ceil((t+1)*N/T)).
        ten.firstCore = std::uint32_t(
            (std::uint64_t(t) * num_cores + nt - 1) / nt);
        const std::uint32_t next_first = std::uint32_t(
            (std::uint64_t(t + 1) * num_cores + nt - 1) / nt);
        ten.numCores = next_first - ten.firstCore;
        ten.slots = _params.keysPerTenant +
                    ten.numCores * _params.insertsPerCore;

        // The whole tenant's table comes from its first core's arena:
        // tenant address ranges are disjoint by construction.
        ten.table = heap.alloc(ten.firstCore,
                               std::size_t(ten.slots) * slotBytes(),
                               kLineBytes);
        for (std::uint32_t k = 0; k < _params.keysPerTenant; ++k) {
            const Addr slot = slotAddr(ten, k);
            mem.store64(slot + kKeyTagOff, k + 1);
            mem.store64(slot + kVersionOff, 1);
            writeValue(mem, slot + kValueOff, t, k, 1);
        }
        // Insert-capacity slots start empty (keyTag = 0).
        for (std::uint32_t k = _params.keysPerTenant; k < ten.slots; ++k)
            mem.store64(slotAddr(ten, k) + kKeyTagOff, 0);
    }
}

void
KvWorkload::doRead(const Tenant &t, Accessor &mem, std::uint64_t key)
{
    const Addr slot = slotAddr(t, key);
    mem.compute(10);  // request parse + hash
    mem.load64(slot + kKeyTagOff);
    mem.load64(slot + kVersionOff);
    mem.loadBytes(slot + kValueOff, _params.valueBytes,
                  _valueWords.data());
    mem.compute(10);  // response serialization
}

void
KvWorkload::doUpdate(const Tenant &t, std::uint32_t tenant, Accessor &mem,
                     std::uint64_t key)
{
    const Addr slot = slotAddr(t, key);
    mem.compute(10);
    const std::uint64_t version = mem.load64(slot + kVersionOff);
    // Version bump + value rewrite form one atomic durable region, so
    // a torn update leaves a (version, value) mismatch for
    // checkConsistency to catch.
    mem.atomicBegin();
    mem.store64(slot + kVersionOff, version + 1);
    writeValue(mem, slot + kValueOff, tenant, key, version + 1);
    mem.atomicEnd();
}

void
KvWorkload::doInsert(const Tenant &t, std::uint32_t tenant, CoreId core,
                     Accessor &mem)
{
    PerCore &pc = _state[core];
    // Cores of one tenant stride the insert-capacity region so their
    // key ids never collide.
    const std::uint64_t key =
        _params.keysPerTenant + (core - t.firstCore) +
        std::uint64_t(pc.inserted) * t.numCores;
    ++pc.inserted;
    const Addr slot = slotAddr(t, key);
    mem.compute(10);
    mem.atomicBegin();
    mem.store64(slot + kKeyTagOff, key + 1);
    mem.store64(slot + kVersionOff, 1);
    writeValue(mem, slot + kValueOff, tenant, key, 1);
    mem.atomicEnd();
}

void
KvWorkload::runTransaction(CoreId core, Accessor &mem, Random &rng)
{
    const std::uint32_t tenant = tenantOfCore(core);
    const Tenant &t = _tenants[tenant];
    const double op = rng.unit();

    if (op < _params.readFraction) {
        mem.tagTxn(std::uint16_t(tenant), kClassRead);
        doRead(t, mem, _zipf[0].next(rng));
        return;
    }
    if (op < _params.readFraction + _params.updateFraction ||
        _state[core].inserted >= _params.insertsPerCore) {
        // Update draw, or an insert draw from a core whose capacity is
        // exhausted (falls back so per-core work stays comparable).
        mem.tagTxn(std::uint16_t(tenant), kClassUpdate);
        doUpdate(t, tenant, mem, _zipf[0].next(rng));
        return;
    }
    mem.tagTxn(std::uint16_t(tenant), kClassInsert);
    doInsert(t, tenant, core, mem);
}

std::string
KvWorkload::checkConsistency(DirectAccessor &mem, std::uint32_t num_cores)
{
    (void)num_cores;
    for (std::uint32_t tn = 0; tn < _tenants.size(); ++tn) {
        const Tenant &t = _tenants[tn];
        if (t.table == 0)
            continue;
        for (std::uint32_t s = 0; s < t.slots; ++s) {
            const Addr slot = slotAddr(t, s);
            const std::uint64_t tag = mem.load64(slot + kKeyTagOff);
            if (tag == 0) {
                if (s < _params.keysPerTenant) {
                    return faultf("preloaded key vanished: tenant=%u "
                                  "key=%u slot=0x%llx",
                                  tn, s, (unsigned long long)slot);
                }
                continue;  // unused insert capacity
            }
            if (tag != s + 1) {
                return faultf("slot holds the wrong key (torn insert?): "
                              "tenant=%u slot_index=%u keyTag=0x%llx",
                              tn, s, (unsigned long long)tag);
            }
            const std::uint64_t version = mem.load64(slot + kVersionOff);
            if (version == 0) {
                return faultf("zero version: tenant=%u key=%u", tn, s);
            }
            std::vector<std::uint64_t> words(_params.valueBytes / 8);
            mem.loadBytes(slot + kValueOff, _params.valueBytes,
                          words.data());
            const std::uint64_t seed = valueSeed(tn, s, version);
            for (std::size_t i = 0; i < words.size(); ++i) {
                if (words[i] != seed + i) {
                    return faultf(
                        "torn value (version/value mismatch): tenant=%u "
                        "key=%u version=%llu word=%zu addr=0x%llx "
                        "expected=0x%llx found=0x%llx",
                        tn, s, (unsigned long long)version, i,
                        (unsigned long long)(slot + kValueOff + i * 8),
                        (unsigned long long)(seed + i),
                        (unsigned long long)words[i]);
                }
            }
        }
    }
    return "";
}

} // namespace atomsim
