#include "cpu/store_queue.hh"

#include <cstring>

#include "cache/l1_cache.hh"
#include "sim/logging.hh"

namespace atomsim
{

StoreQueue::StoreQueue(CoreId core, EventQueue &eq, std::uint32_t entries,
                       std::uint32_t drain_width, L1Cache &l1,
                       StatSet &stats)
    : _core(core),
      _eq(eq),
      _entries(entries),
      _drainWidth(std::max<std::uint32_t>(1, drain_width)),
      _l1(l1),
      _ring(entries),
      _statFullCycles(
          stats.counter("core" + std::to_string(core), "sq_full_cycles")),
      _statRetired(
          stats.counter("core" + std::to_string(core), "stores_retired"))
{
}

void
StoreQueue::push(Addr addr, const std::uint8_t *bytes, std::uint32_t size,
                 Callback accepted)
{
    panic_if(size > MemOp::kMaxStoreBytes,
             "SQ store of %u bytes exceeds one entry", size);
    if (_count >= _entries) {
        // SQ full: the pipeline stalls until retirement frees an entry.
        FullWaiter *w = _fullPool.acquire();
        w->since = _eq.now();
        w->addr = addr;
        std::memcpy(w->payload.data(), bytes, size);
        w->size = std::uint8_t(size);
        w->accepted = std::move(accepted);
        _full.push(w);
        return;
    }
    Entry &entry = _ring[slotAt(_count)];
    entry.addr = addr;
    std::memcpy(entry.payload.data(), bytes, size);
    entry.size = std::uint8_t(size);
    entry.issued = false;
    entry.done = false;
    ++_count;
    accepted();
    pump();
}

void
StoreQueue::pump()
{
    // Issue stores (in order) up to the drain width; entries dequeue
    // strictly in order as the oldest ones complete. A store may not
    // issue while an older in-flight store targets the same line:
    // completions are out of order, and same-line stores must apply
    // in program order.
    for (std::uint32_t i = 0; i < _count; ++i) {
        const std::uint32_t slot = slotAt(i);
        Entry &entry = _ring[slot];
        if (_issued >= _drainWidth)
            break;
        if (entry.issued)
            continue;
        bool conflict = false;
        for (std::uint32_t j = 0; j < i && !conflict; ++j) {
            const Entry &older = _ring[slotAt(j)];
            conflict = older.issued && !older.done &&
                       lineAlign(older.addr) == lineAlign(entry.addr);
        }
        if (conflict)
            continue;
        entry.issued = true;
        ++_issued;
        _l1.store(entry.addr, entry.payload.data(), entry.size,
                  [this, slot] {
                      _ring[slot].done = true;
                      --_issued;
                      retireCompleted();
                  });
    }
}

void
StoreQueue::retireCompleted()
{
    while (_count > 0 && _ring[_head].done) {
        _ring[_head].issued = false;
        _ring[_head].done = false;
        _head = _head + 1 == _entries ? 0 : _head + 1;
        --_count;
        _statRetired.inc();
        if (!_full.empty()) {
            FullWaiter *w = _full.pop();
            _statFullCycles.inc(_eq.now() - w->since);
            const Addr addr = w->addr;
            const Payload payload = w->payload;
            const std::uint32_t size = w->size;
            Callback accepted = std::move(w->accepted);
            _fullPool.release(w);
            push(addr, payload.data(), size, std::move(accepted));
        }
    }
    pump();
    if (empty() && !_drain.empty()) {
        DrainWaiter *w = _drain.take();
        while (w) {
            DrainWaiter *next = w->next;
            Callback cb = std::move(w->cb);
            _drainPool.release(w);
            cb();
            w = next;
        }
    }
}

void
StoreQueue::whenEmpty(Callback cb)
{
    if (empty()) {
        cb();
        return;
    }
    DrainWaiter *w = _drainPool.acquire();
    w->cb = std::move(cb);
    _drain.push(w);
}

bool
StoreQueue::holdsLine(Addr addr) const
{
    const Addr line = lineAlign(addr);
    for (std::uint32_t i = 0; i < _count; ++i) {
        if (lineAlign(_ring[slotAt(i)].addr) == line)
            return true;
    }
    return false;
}

} // namespace atomsim
