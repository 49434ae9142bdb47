/**
 * @file
 * Open-addressing hash table keyed by (line or page) address.
 *
 * The per-line hardware tables on the transaction path -- LogM's
 * record-header lock table and per-AUS logged-line set, the memory
 * controller's in-flight write table, the directory's entries and
 * control blocks -- are all address-keyed maps that churn an entry per
 * access. std::unordered_map pays a node allocation on every insert;
 * this table stores entries inline in one power-of-two slot array:
 *
 *  - linear probing from a Fibonacci hash of the key;
 *  - backward-shift deletion (no tombstones, so probe chains never
 *    degrade under insert/erase churn);
 *  - doubling growth at 3/4 load that never shrinks: the table sizes
 *    itself to the live high-water mark once and then recycles slots
 *    forever. It is never presized; the first insert allocates.
 *
 * Caveats callers must respect:
 *  - Inserting may grow (relocate every entry) and erasing shifts
 *    later entries back, so a pointer or reference into the table is
 *    only valid until the next insert or erase.
 *  - Slot order depends on hashing and history. forEach() is for
 *    order-independent work only (releasing nodes, collecting keys
 *    that are sorted afterwards).
 *  - The all-ones address is reserved as the empty-slot marker (no
 *    line- or page-aligned address can take it).
 */

#ifndef ATOMSIM_SIM_ADDR_TABLE_HH
#define ATOMSIM_SIM_ADDR_TABLE_HH

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/types.hh"

namespace atomsim
{

template <typename V>
class AddrTable
{
  public:
    /** Empty-slot marker (never a valid key). */
    static constexpr Addr kEmpty = ~Addr(0);

    std::size_t size() const { return _size; }
    bool empty() const { return _size == 0; }

    /** The value for @p key, or nullptr. */
    V *
    find(Addr key)
    {
        if (_size == 0)
            return nullptr;
        for (std::size_t i = home(key);; i = (i + 1) & _mask) {
            Slot &s = _slots[i];
            if (s.key == key)
                return &s.value;
            if (s.key == kEmpty)
                return nullptr;
        }
    }

    const V *
    find(Addr key) const
    {
        return const_cast<AddrTable *>(this)->find(key);
    }

    bool contains(Addr key) const { return find(key) != nullptr; }

    /**
     * The value for @p key, default-constructing it when absent.
     * @return (value, inserted)
     */
    std::pair<V *, bool>
    tryEmplace(Addr key)
    {
        if ((_size + 1) * 4 > _slots.size() * 3)
            grow();
        for (std::size_t i = home(key);; i = (i + 1) & _mask) {
            Slot &s = _slots[i];
            if (s.key == key)
                return {&s.value, false};
            if (s.key == kEmpty) {
                s.key = key;
                ++_size;
                return {&s.value, true};
            }
        }
    }

    V &operator[](Addr key) { return *tryEmplace(key).first; }

    /** Insert @p key if absent; true when it was inserted. */
    bool insert(Addr key) { return tryEmplace(key).second; }

    /** Remove @p key; false when it was absent. */
    bool
    erase(Addr key)
    {
        if (_size == 0)
            return false;
        std::size_t hole = home(key);
        for (;; hole = (hole + 1) & _mask) {
            if (_slots[hole].key == key)
                break;
            if (_slots[hole].key == kEmpty)
                return false;
        }
        // Backward-shift: pull later members of the probe chain into
        // the hole while that keeps them at or after their home slot.
        for (std::size_t j = (hole + 1) & _mask;; j = (j + 1) & _mask) {
            Slot &s = _slots[j];
            if (s.key == kEmpty)
                break;
            const std::size_t h = home(s.key);
            // s may move to the hole iff its home is not cyclically
            // inside (hole, j].
            if (((j - h) & _mask) >= ((j - hole) & _mask)) {
                _slots[hole].key = s.key;
                _slots[hole].value = std::move(s.value);
                hole = j;
            }
        }
        _slots[hole].key = kEmpty;
        _slots[hole].value = V{};
        --_size;
        return true;
    }

    /** Drop every entry; capacity is kept. */
    void
    clear()
    {
        if (_size == 0)
            return;
        for (Slot &s : _slots) {
            if (s.key != kEmpty) {
                s.key = kEmpty;
                s.value = V{};
            }
        }
        _size = 0;
    }

    /** Visit every (key, value) in slot order -- order-independent
     * work only (see the file comment). @p fn must not insert or
     * erase. */
    template <typename F>
    void
    forEach(F &&fn)
    {
        for (Slot &s : _slots)
            if (s.key != kEmpty)
                fn(s.key, s.value);
    }

    template <typename F>
    void
    forEach(F &&fn) const
    {
        for (const Slot &s : _slots)
            if (s.key != kEmpty)
                fn(s.key, s.value);
    }

  private:
    struct Slot
    {
        Addr key = kEmpty;
        V value{};
    };

    std::size_t
    home(Addr key) const
    {
        return std::size_t((key * 0x9e3779b97f4a7c15ull) >> _shift);
    }

    void
    grow()
    {
        const std::size_t cap = _slots.empty() ? 16 : _slots.size() * 2;
        std::vector<Slot> old(cap);
        old.swap(_slots);
        _mask = cap - 1;
        _shift = 64;
        for (std::size_t c = cap; c > 1; c >>= 1)
            --_shift;
        for (Slot &s : old) {
            if (s.key == kEmpty)
                continue;
            std::size_t i = home(s.key);
            while (_slots[i].key != kEmpty)
                i = (i + 1) & _mask;
            _slots[i].key = s.key;
            _slots[i].value = std::move(s.value);
        }
    }

    std::vector<Slot> _slots;
    std::size_t _size = 0;
    std::size_t _mask = 0;
    unsigned _shift = 64;
};

/** Address set: an AddrTable with no payload. */
struct NoValue
{
};
using AddrSet = AddrTable<NoValue>;

} // namespace atomsim

#endif // ATOMSIM_SIM_ADDR_TABLE_HH
