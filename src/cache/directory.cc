#include "cache/directory.hh"

#include "sim/logging.hh"

namespace atomsim
{

DirEntry &
Directory::entry(Addr line_addr)
{
    auto [entry, inserted] = _entries.tryEmplace(lineAlign(line_addr));
    if (inserted)
        entry->sharers = SharerSet(&_spill);
    return *entry;
}

void
Directory::erase(Addr line_addr)
{
    _entries.erase(lineAlign(line_addr));
}

void
Directory::releaseWaiter(Waiter *w)
{
    w->fn = nullptr;
    _pool.release(w);
}

void
Directory::acquire(Addr line_addr, Txn txn)
{
    line_addr = lineAlign(line_addr);
    auto [slot, inserted] = _ctl.tryEmplace(line_addr);
    LineCtl &ctl = *slot;
    if (inserted && _liveHw && _ctl.size() > _liveHwSeen) {
        _liveHwSeen = _ctl.size();
        _liveHw->set(_liveHwSeen);
    }
    if (!inserted && !ctl.busy)
        --_idleCtl;  // reusing a cached idle block
    if (ctl.busy) {
        Waiter *w = _pool.acquire();
        w->fn = std::move(txn);
        if (ctl.tail)
            ctl.tail->next = w;
        else
            ctl.head = w;
        ctl.tail = w;
        return;
    }
    ctl.busy = true;
    txn();
}

void
Directory::release(Addr line_addr)
{
    line_addr = lineAlign(line_addr);
    LineCtl *slot = _ctl.find(line_addr);
    panic_if(!slot || !slot->busy, "release of a line that is not busy");
    LineCtl &ctl = *slot;
    if (ctl.head) {
        Waiter *w = ctl.head;
        ctl.head = w->next;
        if (!ctl.head)
            ctl.tail = nullptr;
        Txn next = std::move(w->fn);
        releaseWaiter(w);
        next();  // stays busy; next transaction owns the line now
        return;
    }
    // Cache the idle control block for the next transaction on this
    // line -- up to the cap, past which cold blocks are dropped.
    if (_idleCtl < _idleCap) {
        ctl.busy = false;
        ++_idleCtl;
    } else {
        if (_evictions)
            _evictions->inc();
        _ctl.erase(line_addr);
    }
}

bool
Directory::busy(Addr line_addr) const
{
    const LineCtl *ctl = _ctl.find(lineAlign(line_addr));
    return ctl && ctl->busy;
}

void
Directory::clear()
{
    _entries.clear();
    _ctl.forEach([this](Addr, LineCtl &ctl) {
        Waiter *w = ctl.head;
        while (w) {
            Waiter *next = w->next;
            releaseWaiter(w);
            w = next;
        }
    });
    _ctl.clear();
    _idleCtl = 0;
}

} // namespace atomsim
