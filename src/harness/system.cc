#include "harness/system.hh"

#include "sim/logging.hh"

namespace atomsim
{

System::System(const SystemConfig &cfg, Addr data_bytes)
    : _cfg(cfg), _amap(cfg, data_bytes)
{
    _cfg.validate();

    // Simulation domains. Sequential runs use one queue for the whole
    // machine; sharded runs give every domain -- one per core+L1 tile,
    // one per L2 slice, one per MC -- its own queue *even when domains
    // share a worker*, so per-domain event order is identical for
    // every shard count (see sim/shard.hh).
    _layout = ShardLayout::make(_cfg.numShards, _cfg.numCores,
                                _cfg.l2Tiles, _cfg.numMemCtrls,
                                _cfg.shardPlacement, _cfg.meshRows,
                                _cfg.meshCols());
    const std::uint32_t ndomains = _layout.sharded() ? _layout.domains()
                                                     : 1;
    for (std::uint32_t d = 0; d < ndomains; ++d)
        _domains.push_back(
            std::make_unique<SimDomain>(d, _cfg.wheelBuckets));

    EventQueue &eq0 = _domains[0]->queue();
    auto core_queue = [this, &eq0](CoreId c) -> EventQueue & {
        return _layout.sharded()
                   ? _domains[_layout.coreDomain(c)]->queue()
                   : eq0;
    };
    auto tile_queue = [this, &eq0](std::uint32_t t) -> EventQueue & {
        return _layout.sharded()
                   ? _domains[_layout.tileDomain(t)]->queue()
                   : eq0;
    };
    auto mc_queue = [this, &eq0](McId m) -> EventQueue & {
        return _layout.sharded() ? _domains[_layout.mcDomain(m)]->queue()
                                 : eq0;
    };

    _mesh = std::make_unique<Mesh>(eq0, _cfg, _stats);

    for (McId m = 0; m < _cfg.numMemCtrls; ++m) {
        _mcs.push_back(std::make_unique<MemoryController>(
            m, mc_queue(m), _cfg, _nvm, _stats));
        // Hybrid memory: the app-direct window (empty outside
        // AppDirect mode) bypasses the controller's DRAM cache.
        _mcs.back()->setUncacheableWindow(_amap.appDirectBase(),
                                          _amap.appDirectEnd());
        _mcPorts.push_back(
            std::make_unique<McPort>(m, *_mesh, *_mcs.back()));
    }
    if (_cfg.ssdTier) {
        // Flash tier: one SSD + destage engine per controller, polled
        // from the owning MC's simulation domain -- all flash-tier
        // state is touched only from that domain, so sharded
        // byte-identity holds without any new cross-domain protocol.
        for (McId m = 0; m < _cfg.numMemCtrls; ++m) {
            _ssds.push_back(std::make_unique<SsdDevice>(
                m, mc_queue(m), _cfg, _stats));
            _destages.push_back(std::make_unique<DestageEngine>(
                m, mc_queue(m), _cfg, _amap, *_mcs[m], *_ssds[m], _nvm,
                _stats));
            _mcs[m]->setDestageEngine(_destages.back().get());
        }
    }
    {
        std::vector<EventQueue *> os_queues;
        for (McId m = 0; m < _cfg.numMemCtrls; ++m)
            os_queues.push_back(&mc_queue(m));
        _logSpace = std::make_unique<LogSpace>(std::move(os_queues),
                                               _cfg, _stats);
    }

    for (std::uint32_t t = 0; t < _cfg.l2Tiles; ++t) {
        _tiles.push_back(std::make_unique<L2Tile>(
            t, tile_queue(t), _cfg, *_mesh, _amap, _stats));
    }
    for (CoreId c = 0; c < _cfg.numCores; ++c) {
        _l1s.push_back(std::make_unique<L1Cache>(
            c, core_queue(c), _cfg, *_mesh, _amap, _tiles, _stats));
    }

    for (auto &l1 : _l1s)
        _l1Table.push_back(l1.get());
    std::vector<MeshSink *> mc_sinks;
    for (auto &port : _mcPorts)
        mc_sinks.push_back(port.get());
    std::vector<MeshSink *> tile_sinks;
    for (auto &tile : _tiles)
        tile_sinks.push_back(tile.get());
    for (auto &tile : _tiles) {
        tile->setL1s(_l1Table.data());
        tile->setMcPorts(mc_sinks);
    }
    for (auto &port : _mcPorts)
        port->setTileSinks(tile_sinks);

    // --- Design-specific wiring ----------------------------------------
    const bool undo_design = _cfg.design == DesignKind::Base ||
                             _cfg.design == DesignKind::Atom ||
                             _cfg.design == DesignKind::AtomOpt;

    if (undo_design) {
        _ausPool = std::make_unique<AusPool>(
            eq0, _cfg.ausPerMc, _cfg.numCores, _stats);
        auto resolve = [this](CoreId core) {
            return _ausPool->slotOf(core);
        };
        for (McId m = 0; m < _cfg.numMemCtrls; ++m) {
            _logms.push_back(std::make_unique<LogM>(
                m, mc_queue(m), _cfg, _amap, *_mcs[m], *_logSpace,
                _stats, resolve));
        }
        const bool posted = _cfg.design != DesignKind::Base;
        _logi = std::make_unique<LogI>(eq0, _cfg, *_mesh, _amap, _logms,
                                       posted, resolve, _stats);
        for (auto &l1 : _l1s)
            l1->setStoreLogger(_logi.get());

        if (_cfg.design == DesignKind::AtomOpt) {
            for (McId m = 0; m < _cfg.numMemCtrls; ++m) {
                _logms[m]->setSourceLogging(true);
                _mcPorts[m]->setSourceLogger(_logms[m].get());
            }
        }
    } else if (_cfg.design == DesignKind::Redo) {
        _ausPool = std::make_unique<AusPool>(
            eq0, _cfg.numCores, _cfg.numCores, _stats);
        _redo = std::make_unique<RedoEngine>(eq0, _cfg, _amap, _mcs,
                                             _stats);
        for (auto &l1 : _l1s)
            l1->setStoreLogger(_redo.get());
        for (auto &tile : _tiles)
            tile->setVictimCache(&_redo->victimCache(tile->tileId()));
    } else {
        // NON-ATOMIC: no logger, no AUS.
        _ausPool = std::make_unique<AusPool>(
            eq0, _cfg.numCores, _cfg.numCores, _stats);
    }

    _design = std::make_unique<DesignContext>(
        eq0, _cfg, _logms, _l1Table, *_ausPool, _redo.get(), _stats);

    if (_cfg.numTenants > 0) {
        // Multi-tenant accounting: per-core pointers into shared
        // per-tenant counters (cores of one tenant share a Counter;
        // atomic inc keeps them shard-safe).
        auto per_core = [this](const char *stat) {
            std::vector<Counter *> v(_cfg.numCores);
            for (CoreId c = 0; c < _cfg.numCores; ++c)
                v[c] = &_stats.counter(
                    "tenant" + std::to_string(_cfg.tenantOf(c)), stat);
            return v;
        };
        _design->setTenantCounters(per_core("commits"));
        _ausPool->setTenantCounters(per_core("aus_acquires"));
        if (_logi)
            _logi->setTenantCounters(per_core("log_writes"));
    }

    if (_cfg.serializeAtomicRegions)
        _regionSer = std::make_unique<RegionSerializer>();
    for (CoreId c = 0; c < _cfg.numCores; ++c) {
        _cores.push_back(std::make_unique<Core>(
            c, core_queue(c), _cfg, *_l1s[c], _stats));
        _cores.back()->setHooks(_design.get());
        _cores.back()->setRegionSerializer(_regionSer.get());
        _cores.back()->setTally(&_tally);
    }

    if (_layout.sharded()) {
        std::vector<SimDomain *> domains;
        for (auto &d : _domains)
            domains.push_back(d.get());

        // Deliveries execute on the receiver's domain. Typed sinks
        // resolve through a prebuilt pointer->domain map; the LogI
        // front end is special (its LogWrite handler runs at the
        // line's MC), and the only routable cb-only packet is the
        // LogAck riding a store continuation back to its core.
        _sinkDomain.clear();
        for (McId m = 0; m < _mcPorts.size(); ++m)
            _sinkDomain[_mcPorts[m].get()] = _layout.mcDomain(m);
        for (std::uint32_t t = 0; t < _tiles.size(); ++t)
            _sinkDomain[_tiles[t].get()] = _layout.tileDomain(t);
        for (CoreId c = 0; c < _l1s.size(); ++c)
            _sinkDomain[_l1s[c].get()] = _layout.coreDomain(c);

        _mesh->shardAttach(domains, _layout, [this](const Packet &p) {
            if (p.receiver) {
                if (_logi && p.receiver == _logi.get())
                    return _layout.mcDomain(_amap.memCtrl(p.addr));
                auto it = _sinkDomain.find(p.receiver);
                panic_if(it == _sinkDomain.end(),
                         "mesh packet %s with an unmapped receiver",
                         msgName(p.type));
                return it->second;
            }
            panic_if(p.type != MsgType::LogAck,
                     "cb-only mesh packet %s has no domain mapping",
                     msgName(p.type));
            return _layout.coreDomain(p.core);
        });
        _design->setSharded(std::move(domains), _layout);
    }
}

System::~System()
{
    // The controllers hold raw pointers to the (soon gone) LogM gate
    // and destage engine.
    for (auto &mc : _mcs) {
        mc->setWriteGate(nullptr);
        mc->setDestageEngine(nullptr);
    }
}

void
System::powerFail()
{
    // ADR: the critical LogM registers reach NVM even as power drops.
    for (auto &logm : _logms)
        logm->flushCriticalState(_nvm);

    for (auto &mc : _mcs)
        mc->powerFail();
    // Destage engines before devices: the engines drop their volatile
    // tracking (durable truth is the NVM forwarding map + flash
    // image), then the devices reclaim in-flight commands.
    for (auto &eng : _destages)
        eng->powerFail();
    for (auto &ssd : _ssds)
        ssd->powerFail();
    for (auto &tile : _tiles)
        tile->powerFail();
    for (auto &l1 : _l1s)
        l1->powerFail();
    if (_redo)
        _redo->powerFail();
}

RecoveryReport
System::recover(const RecoveryOptions &opts)
{
    RecoveryOptions o = opts;
    if (!o.flashImage && !_ssds.empty()) {
        o.flashImage = [this](McId m) -> const DataImage * {
            return m < _ssds.size() ? &_ssds[m]->flash() : nullptr;
        };
    }
    RecoveryManager mgr(_cfg, _amap);
    return mgr.recover(_nvm, o, &_stats);
}

RecoveryReport
System::recoverRedo(const RecoveryOptions &opts)
{
    RecoveryOptions o = opts;
    if (!o.flashImage && !_ssds.empty()) {
        o.flashImage = [this](McId m) -> const DataImage * {
            return m < _ssds.size() ? &_ssds[m]->flash() : nullptr;
        };
    }
    RedoRecovery mgr(_cfg, _amap);
    return mgr.recover(_nvm, o);
}

std::vector<MediaFaultRecord>
System::mediaFaults() const
{
    std::vector<MediaFaultRecord> all;
    for (const auto &mc : _mcs) {
        const auto &faults = mc->mediaFaults();
        all.insert(all.end(), faults.begin(), faults.end());
    }
    return all;
}

} // namespace atomsim
