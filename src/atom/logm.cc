#include "atom/logm.hh"

#include <algorithm>
#include <cstring>

#include "mem/ssd_device.hh"
#include "sim/logging.hh"

namespace atomsim
{

LogM::LogM(McId mc, EventQueue &eq, const SystemConfig &cfg,
           const AddressMap &amap, MemoryController &ctrl, LogSpace &os,
           StatSet &stats, std::function<int(CoreId)> resolve_aus)
    : _mc(mc),
      _eq(eq),
      _cfg(cfg),
      _amap(amap),
      _ctrl(ctrl),
      _os(os),
      _resolveAus(std::move(resolve_aus)),
      _buckets(cfg.ausPerMc, cfg.bucketsPerMc, cfg.osInitialBucketsPerMc),
      _aus(cfg.ausPerMc),
      _statEntries(
          stats.counter("logm" + std::to_string(mc), "entries")),
      _statRecords(
          stats.counter("logm" + std::to_string(mc), "records")),
      _statSourceLogged(
          stats.counter("logm" + std::to_string(mc), "source_logged")),
      _statOverflows(
          stats.counter("logm" + std::to_string(mc), "log_overflows")),
      _statForcedSeals(
          stats.counter("logm" + std::to_string(mc), "forced_seals")),
      _statDupEntries(
          stats.counter("logm" + std::to_string(mc), "dup_entries")),
      _statTruncations(
          stats.counter("logm" + std::to_string(mc), "truncations"))
{
    _ctrl.setWriteGate(this);
}

void
LogM::beginUpdate(std::uint32_t aus)
{
    AusState &st = _aus[aus];
    panic_if(st.active, "AUS %u already active at mc%u", aus, _mc);
    st.active = true;
    st.currentBucket = kNoBucket;
    st.currentRecord = 0;
    st.txnStartSeq = st.nextSeq;
    st.loggedLines.clear();
}

OpenRecord *
LogM::acquireRecord()
{
    OpenRecord *rec = _recordPool.acquire();
    rec->count = 0;
    rec->pendingData = 0;
    rec->sealed = false;
    rec->headerIssued = false;
    return rec;
}

void
LogM::releaseRecord(OpenRecord *rec)
{
    for (PersistAck *a = rec->acks.take(); a;) {
        PersistAck *next = a->next;
        a->cb = nullptr;
        _ackPool.release(a);
        a = next;
    }
    _recordPool.release(rec);
}

void
LogM::appendAck(OpenRecord *rec, LogAckCallback ack)
{
    PersistAck *a = _ackPool.acquire();
    a->cb = std::move(ack);
    rec->acks.push(a);
}

void
LogM::lock(Addr line_addr)
{
    ++_locks[lineAlign(line_addr)].count;
}

void
LogM::unlock(Addr line_addr)
{
    const Addr line = lineAlign(line_addr);
    LockState *ls = _locks.find(line);
    panic_if(!ls || ls->count == 0,
             "unlock of a line that is not locked");
    if (--ls->count == 0) {
        UnlockWaiter *w = ls->waiters.take();
        _locks.erase(line);
        while (w) {
            UnlockWaiter *next = w->next;
            UnlockCallback cb = std::move(w->cb);
            _unlockPool.release(w);
            cb();
            w = next;
        }
    }
}

bool
LogM::lineLocked(Addr line_addr) const
{
    const LockState *ls = _locks.find(lineAlign(line_addr));
    return ls && ls->count > 0;
}

bool
LogM::tryAcquire(Addr line_addr, UnlockCallback on_unlock)
{
    const Addr line = lineAlign(line_addr);
    LockState *ls = _locks.find(line);
    if (!ls || ls->count == 0)
        return true;

    // The data write matched a pending record header: expedite the
    // header persist by sealing any open record holding this line.
    UnlockWaiter *w = _unlockPool.acquire();
    w->cb = std::move(on_unlock);
    ls->waiters.push(w);
    for (std::uint32_t a = 0; a < _aus.size(); ++a) {
        OpenRecord *open = _aus[a].open;
        if (open && !open->sealed && open->holds(line)) {
            _statForcedSeals.inc();
            sealOpen(a);
        }
    }
    return false;
}

void
LogM::withOpenRecord(std::uint32_t aus, ReadyCallback ready)
{
    AusState &st = _aus[aus];
    panic_if(!st.active, "log entry for inactive AUS %u", aus);

    if (st.open && !st.open->sealed &&
        st.open->count < std::min<std::size_t>(
                             _cfg.recordEntries,
                             LogRecordHeader::kMaxEntries)) {
        ready();
        return;
    }
    if (st.open && !st.open->sealed)
        sealOpen(aus);

    // Need a fresh record; possibly a fresh bucket.
    if (st.currentBucket == kNoBucket ||
        st.currentRecord >= _amap.recordsPerBucket()) {
        auto bucket = _buckets.allocate(aus);
        if (!bucket) {
            // Log overflow: interrupt the OS for more mapped pages,
            // then retry (Section IV-E). The requesting update makes
            // forward progress with the new resources, so overflow
            // cannot deadlock.
            _statOverflows.inc();
            // Cold path: the OS interface takes a copyable
            // std::function, so the move-only continuation rides a
            // shared_ptr for this one hop.
            auto parked =
                std::make_shared<ReadyCallback>(std::move(ready));
            _os.requestMoreBuckets(
                _mc, [this, aus, parked](std::uint32_t extra) {
                    _buckets.extendMapped(extra);
                    withOpenRecord(aus, std::move(*parked));
                });
            return;
        }
        const std::uint32_t prev = st.currentBucket;
        st.currentBucket = *bucket;
        st.currentRecord = 0;
        if (prev != kNoBucket) {
            // The bucket just left behind is full: no record will be
            // appended to it until truncation frees it. That makes it
            // a cold log segment -- the destage engine's preferred
            // candidate for migration to flash.
            if (DestageEngine *eng = _ctrl.destageEngine())
                eng->onLogSegmentCold(_amap.bucketBase(_mc, prev));
        }
    }

    OpenRecord *rec = acquireRecord();
    rec->base = _amap.recordBase(_mc, st.currentBucket, st.currentRecord);
    rec->seq = st.nextSeq++;
    ++st.currentRecord;
    st.open = rec;
    _statRecords.inc();
    ready();
}

void
LogM::postLogEntry(std::uint32_t aus, Addr line_addr,
                   const Line &old_value, bool posted,
                   LogAckCallback ack)
{
    const Addr line = lineAlign(line_addr);

    // Duplicate-undo suppression: the line is already covered by this
    // update's log (the address matches an AUS header register or an
    // already-persisted record). Recovery applies records newest-first,
    // so only the first pre-image per line decides the restored value;
    // a second entry would be dead weight -- and worse, each re-log of
    // a store thrashing against recalls seals a fresh record, which
    // can exhaust the log region and livelock the overflow interrupt
    // (buckets are only reclaimed at commit). Ack against the existing
    // entry instead of appending a new one.
    {
        AusState &st = _aus[aus];
        panic_if(!st.active, "log entry for inactive AUS %u", aus);
        if (!st.loggedLines.insert(line)) {
            _statDupEntries.inc();
            if (!ack)
                return;
            if (!posted) {
                // BASE: the ack still means "this entry is durable".
                // If the covering record's header has not persisted
                // yet, ride its persist; otherwise the entry is
                // already durable and only the address match costs.
                OpenRecord *cover =
                    st.open && st.open->holds(line) ? st.open : nullptr;
                for (std::size_t i = 0; !cover && i < st.sealing.size();
                     ++i) {
                    if (st.sealing[i]->holds(line))
                        cover = st.sealing[i];
                }
                if (cover) {
                    appendAck(cover, std::move(ack));
                    return;
                }
            }
            _eq.postIn(_cfg.mcAddrMatchLatency, std::move(ack));
            return;
        }
    }

    withOpenRecord(aus, [this, aus, line, old_value, posted,
                         ack = std::move(ack)]() mutable {
        AusState &st = _aus[aus];
        OpenRecord *rec = st.open;
        _statEntries.inc();

        const std::uint32_t slot = rec->count;
        rec->entries[rec->count++] = line;
        const Addr entry_addr = rec->base + Addr(slot + 1) * kLineBytes;

        // The line is "locked" (its address now sits in the record
        // header register) until the header persists.
        lock(line);

        ++rec->pendingData;
        ++st.outstandingWrites;
        const Addr rec_base = rec->base;
        _ctrl.writeLine(entry_addr, old_value, WriteKind::LogData,
                        [this, aus, rec_base] {
            AusState &s = _aus[aus];
            OpenRecord *r = nullptr;
            if (s.open && s.open->base == rec_base) {
                r = s.open;
            } else {
                for (OpenRecord *sealing : s.sealing) {
                    if (sealing->base == rec_base) {
                        r = sealing;
                        break;
                    }
                }
            }
            if (r) {
                panic_if(r->pendingData == 0, "pendingData underflow");
                --r->pendingData;
                maybeIssueHeader(aus, r);
            }
            logWriteDone(aus);
        });

        if (posted) {
            // Posted-log optimization: ack after the lock is taken
            // (address-match latency); persistence is off the critical
            // path (Section III-C).
            if (ack) {
                _eq.postIn(_cfg.mcAddrMatchLatency, std::move(ack));
            }
        } else if (ack) {
            // BASE: the ack waits until the entry is durable, i.e.
            // the covering record header has persisted.
            appendAck(rec, std::move(ack));
        }

        // LEC off (or BASE): one entry per record -> seal immediately,
        // costing 2 NVM writes per entry (Section IV-C's motivation).
        const bool lec = _cfg.enableLec && posted;
        if (!lec || rec->count >= std::min<std::size_t>(
                                      _cfg.recordEntries,
                                      LogRecordHeader::kMaxEntries)) {
            sealOpen(aus);
        }
    });
}

void
LogM::sealOpen(std::uint32_t aus)
{
    AusState &st = _aus[aus];
    OpenRecord *rec = st.open;
    if (!rec || rec->sealed)
        return;
    rec->sealed = true;
    st.sealing.push_back(rec);
    st.open = nullptr;
    maybeIssueHeader(aus, rec);
}

void
LogM::maybeIssueHeader(std::uint32_t aus, OpenRecord *rec)
{
    // Header may only persist after every entry data line of the
    // record is durable (a header must never describe garbage data).
    if (!rec->sealed || rec->headerIssued || rec->pendingData > 0)
        return;
    rec->headerIssued = true;

    LogRecordHeader hdr;
    hdr.ausId = std::uint8_t(aus);
    hdr.count = std::uint8_t(rec->count);
    hdr.seq = rec->seq;
    for (std::uint32_t i = 0; i < rec->count; ++i)
        hdr.addrs[i] = rec->entries[i];

    AusState &st = _aus[aus];
    ++st.outstandingWrites;
    const Addr base = rec->base;
    _ctrl.writeLine(base, hdr.toLine(), WriteKind::LogHeader,
                    [this, aus, base] {
        onHeaderDurable(aus, base);
        logWriteDone(aus);
    });
}

void
LogM::logWriteDone(std::uint32_t aus)
{
    AusState &s = _aus[aus];
    if (--s.outstandingWrites == 0 && s.truncDone)
        finishTruncate(aus);
}

void
LogM::onHeaderDurable(std::uint32_t aus, Addr record_base)
{
    AusState &st = _aus[aus];
    for (auto it = st.sealing.begin(); it != st.sealing.end(); ++it) {
        OpenRecord *rec = *it;
        if (rec->base != record_base)
            continue;
        st.sealing.erase(it);
        // Unlock every line in the record: in-place writes may now
        // reach NVM (Invariant 2 satisfied for these lines).
        for (std::uint32_t i = 0; i < rec->count; ++i)
            unlock(rec->entries[i]);
        PersistAck *a = rec->acks.take();
        while (a) {
            PersistAck *next = a->next;
            LogAckCallback ack = std::move(a->cb);
            _ackPool.release(a);
            ack();
            a = next;
        }
        releaseRecord(rec);
        return;
    }
    panic("header durable for unknown record at %llx",
          (unsigned long long)record_base);
}

bool
LogM::sourceLogFill(CoreId core, Addr addr, const Line &old_value)
{
    if (!_sourceLogging)
        return false;
    const int aus = _resolveAus(core);
    if (aus < 0)
        return false;
    _statSourceLogged.inc();
    postLogEntry(std::uint32_t(aus), addr, old_value, true,
                 LogAckCallback{});
    return true;
}

void
LogM::truncate(std::uint32_t aus, TruncateCallback done)
{
    AusState &st = _aus[aus];
    panic_if(!st.active, "truncate of inactive AUS %u", aus);
    panic_if(bool(st.truncDone), "overlapping truncates of AUS %u", aus);
    st.truncDone = std::move(done);
    if (st.outstandingWrites == 0)
        finishTruncate(aus);
}

void
LogM::finishTruncate(std::uint32_t aus)
{
    AusState &s = _aus[aus];
    TruncateCallback done = std::move(s.truncDone);
    // Any still-open record's entries exist only in the header
    // register; clearing the register discards them. Their locks
    // must lift or future data writes would block forever.
    if (OpenRecord *open = s.open) {
        s.open = nullptr;
        for (std::uint32_t i = 0; i < open->count; ++i)
            unlock(open->entries[i]);
        releaseRecord(open);
    }
    panic_if(!s.sealing.empty(),
             "truncate with unpersisted sealed records");

    // Flash tier: snapshot this update's freed log buckets and
    // touched data pages *before* the bucket registers clear. The
    // freed buckets must abandon any in-flight destage (their
    // records are dead; recovery's sequence window already rejects
    // them) and the data pages feed the cold-page LRU. The logged-
    // line set is unordered, so its pages are sorted.
    DestageEngine *eng = _ctrl.destageEngine();
    if (eng) {
        _truncDataPages.clear();
        s.loggedLines.forEach([this](Addr line, NoValue &) {
            _truncDataPages.push_back(line & ~Addr(kPageBytes - 1));
        });
        std::sort(_truncDataPages.begin(), _truncDataPages.end());
        _truncDataPages.erase(
            std::unique(_truncDataPages.begin(), _truncDataPages.end()),
            _truncDataPages.end());
        _truncLogPages.clear();
        _buckets.vectorOf(aus).forEachSet([this](std::uint32_t b) {
            _truncLogPages.push_back(_amap.bucketBase(_mc, b));
        });
    }

    _buckets.truncate(aus);
    _statTruncations.inc();
    s.loggedLines.clear();
    s.active = false;
    s.currentBucket = kNoBucket;
    s.currentRecord = 0;
    s.txnStartSeq = s.nextSeq;
    if (eng) {
        // Under the balanced policy truncation completion -- and
        // with it the commit ack -- waits until the un-destaged
        // backlog is back under its bound.
        eng->onTruncate(_truncDataPages, _truncLogPages, std::move(done));
    } else {
        done();
    }
}

std::uint32_t
LogM::criticalStateBytes() const
{
    // Per AUS: bucket vector (bucketsPerMc bits) + currentBucket (4) +
    // currentRecord (4) + txnStartSeq (4) + nextSeq (4) + active (1,
    // padded to 4). Plus a 16-byte region header.
    const std::uint32_t vec_bytes = (_cfg.bucketsPerMc + 7) / 8;
    return 16 + _cfg.ausPerMc * (vec_bytes + 20);
}

void
LogM::flushCriticalState(DataImage &nvm) const
{
    // ADR guarantee: these registers reach NVM even on power failure
    // (Section IV-D); the write is modeled as instantaneous.
    Addr cursor = _amap.adrBase(_mc);
    panic_if(criticalStateBytes() > kPageBytes,
             "critical state exceeds the ADR page");

    const std::uint32_t magic = 0xADA70001u;
    nvm.store32(cursor, magic);
    nvm.store32(cursor + 4, _cfg.ausPerMc);
    nvm.store32(cursor + 8, _cfg.bucketsPerMc);
    nvm.store32(cursor + 12, 0);
    cursor += 16;

    const std::uint32_t vec_bytes = (_cfg.bucketsPerMc + 7) / 8;
    for (std::uint32_t a = 0; a < _cfg.ausPerMc; ++a) {
        const AusState &st = _aus[a];
        std::vector<std::uint8_t> vec(vec_bytes, 0);
        _buckets.vectorOf(a).forEachSet([&](std::uint32_t b) {
            vec[b / 8] |= std::uint8_t(1) << (b % 8);
        });
        nvm.write(cursor, vec.size(), vec.data());
        cursor += vec_bytes;
        nvm.store32(cursor, st.currentBucket);
        nvm.store32(cursor + 4, st.currentRecord);
        nvm.store32(cursor + 8, st.txnStartSeq);
        nvm.store32(cursor + 12, st.nextSeq);
        nvm.store32(cursor + 16, st.active ? 1 : 0);
        cursor += 20;
    }
}

} // namespace atomsim
