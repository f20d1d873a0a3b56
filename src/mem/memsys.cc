#include "mem/memsys.hh"

#include <algorithm>

#include "common/log.hh"

namespace oscache
{

MemorySystem::MemorySystem(const MachineConfig &config) : cfg(config)
{
    cfg.check();
    // One contiguous reservation covers every processor's tag banks,
    // the L2 state banks, and both write-buffer rings.
    arena.reserve(std::size_t{cfg.numCpus} * CpuMem::arenaBytes(cfg));
    cpus.reserve(cfg.numCpus);
    for (unsigned i = 0; i < cfg.numCpus; ++i)
        cpus.emplace_back(cfg, arena);
    if (cfg.numaActive())
        numa = std::make_unique<NumaState>(cfg);
}

std::uint32_t
MemorySystem::remoteHolderMask(CpuId requester, Addr l2_line) const
{
    const unsigned socket = cfg.socketOf(requester);
    std::uint32_t mask = 0;
    for (CpuId c = 0; c < cfg.numCpus; ++c) {
        const unsigned s = cfg.socketOf(c);
        if (s == socket)
            continue;
        if (cpus[c].l2.state(l2_line) != LineState::Invalid)
            mask |= 1u << s;
    }
    return mask;
}

Cycles
MemorySystem::numaReadLine(unsigned socket, Addr l2_line, Cycles when,
                           Cycles occupancy, std::uint32_t bytes,
                           std::uint32_t remote_mask)
{
    NumaState &nu = *numa;
    const Cycles grant =
        nu.socketBus[socket].acquire(when, occupancy, BusTxn::LineFill,
                                     bytes);
    const unsigned home = cfg.homeSocketOf(l2_line);
    if (home == socket)
        ++nu.counters.localHomeReads;
    else
        ++nu.counters.remoteHomeReads;
    if (remote_mask == 0)
        ++nu.counters.snoopsFiltered;
    else
        ++nu.counters.snoopsForwarded;
    if (remote_mask == 0 && home == socket)
        return grant + cfg.busMemLatency();

    // Request (and returning data) cross the link; every holding
    // socket is probed, and a remote home adds its access penalty.
    const Cycles lg = nu.link.acquire(grant, cfg.linkTransferOccupancy,
                                      BusTxn::LineFill, bytes);
    Cycles done = lg + cfg.busMemLatency();
    if (home != socket)
        done += cfg.remoteMemPenalty;
    for (unsigned r = 0; r < cfg.numSockets; ++r) {
        if (r == socket || ((remote_mask >> r) & 1u) == 0)
            continue;
        const Cycles rg = nu.socketBus[r].acquire(
            lg, cfg.invalOccupancy, BusTxn::LineFill, 0);
        done = std::max(done,
                        rg + cfg.invalOccupancy + cfg.linkMsgOccupancy);
    }
    return done;
}

Cycles
MemorySystem::numaWriteDone(unsigned socket, Addr l2_line, Cycles grant,
                            Cycles occupancy, BusTxn kind,
                            std::uint32_t bytes,
                            std::uint32_t remote_mask,
                            bool snoop_broadcast)
{
    NumaState &nu = *numa;
    Cycles done = grant + occupancy;
    if (snoop_broadcast) {
        if (remote_mask == 0)
            ++nu.counters.snoopsFiltered;
        else
            ++nu.counters.snoopsForwarded;
    }
    // Memory-bound kinds must also reach a remote home's socket.
    std::uint32_t fwd = remote_mask;
    const unsigned home = cfg.homeSocketOf(l2_line);
    if (kind != BusTxn::Invalidate && home != socket)
        fwd |= 1u << home;
    if (fwd == 0)
        return done;
    const Cycles link_occ =
        kind == BusTxn::WriteBack || kind == BusTxn::Dma
            ? cfg.linkTransferOccupancy
            : cfg.linkMsgOccupancy;
    const Cycles lg = nu.link.acquire(grant, link_occ, kind, bytes);
    for (unsigned r = 0; r < cfg.numSockets; ++r) {
        if (r == socket || ((fwd >> r) & 1u) == 0)
            continue;
        const Cycles rg = nu.socketBus[r].acquire(lg, occupancy, kind, 0);
        done = std::max(done, rg + occupancy);
    }
    return done;
}

bool
MemorySystem::isUpdateAddr(Addr addr) const
{
    if (updatePages == nullptr || updatePages->empty())
        return false;
    return updatePages->count(alignDown(addr, Addr{4096})) != 0;
}

MissCause
MemorySystem::classifyMiss(CpuMem &mem, Addr line)
{
    // One flat probe yields both per-processor mark classes; bypass
    // marks live in their own (usually empty) global table whose
    // population test keeps non-bypassing schemes from probing it.
    const std::uint8_t flags = mem.marks.flagsAt(line);
    if ((flags & MarkTable::coherence) != 0)
        return MissCause::Coherence;
    if (bypassMarks.any(MarkTable::bypass) &&
        bypassMarks.test(line, MarkTable::bypass))
        return MissCause::Reuse;
    if ((flags & MarkTable::blockEvict) != 0)
        return MissCause::Displacement;
    return MissCause::Plain;
}

void
MemorySystem::fillL1(CpuId cpu, Addr addr, bool block_op_fill)
{
    CpuMem &mem = cpus[cpu];
    const Addr line = mem.l1.lineAddr(addr);
    const Addr victim = mem.l1.fill(addr);
    if (victim != invalidAddr) {
        if (fan.active())
            fan.onL1Drop(cpu, victim);
        if (block_op_fill)
            mem.marks.set(victim, MarkTable::blockEvict);
        else if (mem.marks.any(MarkTable::blockEvict))
            mem.marks.clear(victim, MarkTable::blockEvict);
    }
    // A fresh residency wipes any stale classification marks — one
    // probe for both per-processor classes, and the bypass table is
    // skipped entirely while no scheme has populated it.
    mem.marks.clearAll(line, MarkTable::coherence | MarkTable::blockEvict);
    if (bypassMarks.any(MarkTable::bypass))
        bypassMarks.clear(line, MarkTable::bypass);
    if (fan.active())
        fan.onL1Fill(cpu, line);
}

void
MemorySystem::dropL1(CpuId cpu, Addr l1_line)
{
    CpuMem &mem = cpus[cpu];
    if (!mem.l1.contains(l1_line))
        return;
    mem.l1.invalidate(l1_line);
    if (fan.active())
        fan.onL1Drop(cpu, mem.l1.lineAddr(l1_line));
}

void
MemorySystem::setL2State(CpuId cpu, Addr addr, LineState state)
{
    CpuMem &mem = cpus[cpu];
    const LineState prior = mem.l2.state(addr);
    if (prior == state)
        return;
    mem.l2.setState(addr, state);
    notifyL2(cpu, addr, prior, state);
}

void
MemorySystem::invalidateL2(CpuId cpu, Addr l2_line)
{
    CpuMem &mem = cpus[cpu];
    const LineState prior = mem.l2.state(l2_line);
    if (prior == LineState::Invalid)
        return;
    mem.l2.invalidate(l2_line);
    notifyL2(cpu, l2_line, prior, LineState::Invalid);
}

std::pair<Addr, bool>
MemorySystem::installL2(CpuId cpu, Addr l2_line, LineState state)
{
    CpuMem &mem = cpus[cpu];
    const LineState prior = mem.l2.state(l2_line);
    // Capture the would-be victim's state for the observer before
    // the fill overwrites it.
    LineState victim_state = LineState::Invalid;
    if (prior == LineState::Invalid) {
        const auto [vline, vway] = mem.l2.peekVictim(l2_line);
        (void)vway;
        if (vline != invalidAddr)
            victim_state = mem.l2.state(vline);
    }
    Addr victim = invalidAddr;
    bool victim_dirty = false;
    mem.l2.fill(l2_line, state, victim, victim_dirty);
    if (victim != invalidAddr) {
        // Inclusion: primary copies of the victim die with it.
        for (std::uint32_t off = 0; off < cfg.l2LineSize;
             off += cfg.l1LineSize)
            dropL1(cpu, victim + off);
        notifyL2(cpu, victim, victim_state, LineState::Invalid);
    }
    notifyL2(cpu, l2_line, prior, state);
    return {victim, victim_dirty};
}

void
MemorySystem::debugSetL2State(CpuId cpu, Addr addr, LineState state)
{
    const Addr line = l2Line(addr);
    if (state == LineState::Invalid) {
        invalidateL2(cpu, line);
        return;
    }
    const LineState prior = cpus[cpu].l2.state(line);
    if (prior == LineState::Invalid) {
        installL2(cpu, line, state);
        return;
    }
    setL2State(cpu, line, state);
}

void
MemorySystem::snoopInvalidate(CpuId requester, Addr l2_line)
{
    for (CpuId c = 0; c < cfg.numCpus; ++c) {
        if (c == requester)
            continue;
        CpuMem &other = cpus[c];
        if (other.l2.state(l2_line) == LineState::Invalid)
            continue;
        invalidateL2(c, l2_line);
        for (std::uint32_t off = 0; off < cfg.l2LineSize;
             off += cfg.l1LineSize) {
            const Addr sub = l2_line + off;
            if (other.l1.contains(sub)) {
                dropL1(c, sub);
                other.marks.set(sub, MarkTable::coherence);
            }
        }
    }
}

bool
MemorySystem::snoopUpdate(CpuId requester, Addr l2_line)
{
    bool any = false;
    for (CpuId c = 0; c < cfg.numCpus; ++c) {
        if (c == requester)
            continue;
        CpuMem &other = cpus[c];
        if (other.l2.state(l2_line) == LineState::Invalid)
            continue;
        any = true;
        // Sharers keep their (updated) copies; everyone ends Shared
        // and memory holds the latest data (Firefly semantics).
        setL2State(c, l2_line, LineState::Shared);
    }
    return any;
}

LineState
MemorySystem::readFillState(CpuId requester, Addr l2_line) const
{
    if (sharedElsewhere(requester, l2_line))
        return LineState::Shared;
    // Illinois grants clean-exclusive on a private read; plain MSI
    // loads Shared and pays an upgrade on the first write.
    return cfg.protocol == CoherenceProtocol::Illinois
        ? LineState::Exclusive : LineState::Shared;
}

bool
MemorySystem::sharedElsewhere(CpuId requester, Addr l2_line) const
{
    for (CpuId c = 0; c < cfg.numCpus; ++c) {
        if (c == requester)
            continue;
        if (cpus[c].l2.state(l2_line) != LineState::Invalid)
            return true;
    }
    return false;
}

Cycles
MemorySystem::busReadLine(CpuId cpu, Addr l2_line, Cycles when,
                          bool exclusive)
{
    // The holder mask is captured before the snoop below mutates
    // remote state; the state evolution itself is identical to the
    // flat bus (the directory filter is precise), only the timing
    // and traffic accounting differ.
    Cycles arrive;
    if (numa == nullptr) {
        const Cycles grant =
            theBus.acquire(when, cfg.lineTransferOccupancy,
                           BusTxn::LineFill, cfg.l2LineSize);
        arrive = grant + cfg.busMemLatency();
    } else {
        arrive = numaReadLine(cfg.socketOf(cpu), l2_line, when,
                              cfg.lineTransferOccupancy, cfg.l2LineSize,
                              remoteHolderMask(cpu, l2_line));
    }
    bool supplied = false;
    for (CpuId c = 0; c < cfg.numCpus; ++c) {
        if (c == cpu)
            continue;
        CpuMem &other = cpus[c];
        const LineState st = other.l2.state(l2_line);
        if (st == LineState::Invalid)
            continue;
        if (st == LineState::Modified)
            supplied = true; // Owner supplies; memory is updated.
        if (exclusive) {
            invalidateL2(c, l2_line);
            for (std::uint32_t off = 0; off < cfg.l2LineSize;
                 off += cfg.l1LineSize) {
                const Addr sub = l2_line + off;
                if (other.l1.contains(sub)) {
                    dropL1(c, sub);
                    other.marks.set(sub, MarkTable::coherence);
                }
            }
        } else {
            setL2State(c, l2_line, LineState::Shared);
        }
    }
    (void)supplied; // Cache-to-cache supply uses the same timing.
    return arrive;
}

void
MemorySystem::fillL2(CpuId cpu, Addr l2_line, LineState state, Cycles when)
{
    const auto [victim, victim_dirty] = installL2(cpu, l2_line, state);
    if (victim == invalidAddr || !victim_dirty)
        return;
    if (numa == nullptr) {
        theBus.acquire(when, cfg.lineTransferOccupancy,
                       BusTxn::WriteBack, cfg.l2LineSize);
        return;
    }
    const unsigned socket = cfg.socketOf(cpu);
    const Cycles grant = numa->socketBus[socket].acquire(
        when, cfg.lineTransferOccupancy, BusTxn::WriteBack,
        cfg.l2LineSize);
    numaWriteDone(socket, victim, grant, cfg.lineTransferOccupancy,
                  BusTxn::WriteBack, cfg.l2LineSize, 0,
                  /*snoop_broadcast=*/false);
}

Cycles
MemorySystem::scheduleL2WbEntry(CpuId cpu, CpuMem &mem, Addr l2_line,
                                Cycles ready, Cycles occupancy,
                                BusTxn kind, std::uint32_t bytes,
                                std::uint32_t remote_mask)
{
    const Cycles slot_wait = mem.l2Wb.stallUntilSlot(ready);
    const Cycles start = mem.l2Wb.nextServiceStart(ready + slot_wait);
    Cycles done;
    if (numa == nullptr) {
        const Cycles grant = theBus.acquire(start, occupancy, kind, bytes);
        done = grant + occupancy;
    } else {
        const unsigned socket = cfg.socketOf(cpu);
        const Cycles grant = numa->socketBus[socket].acquire(
            start, occupancy, kind, bytes);
        done = numaWriteDone(socket, l2_line, grant, occupancy, kind,
                             bytes, remote_mask,
                             /*snoop_broadcast=*/true);
    }
    mem.l2Wb.push(l2_line, done);
    return done;
}

AccessResult
MemorySystem::read(CpuId cpu, Addr addr, Cycles now, const AccessContext &ctx)
{
    opBegin(MemOpKind::Read, cpu, addr);
    CpuMem &mem = cpus[cpu];
    AccessResult res;
    const Cycles issued = now;
    const Addr line = l1Line(addr);
    const Addr l2line = l2Line(addr);

    // One tag probe serves both the bypass test and the hit path;
    // the promote happens only after the in-flight check so the LRU
    // order matches the associative ablations' record-at-a-time
    // semantics exactly.
    const std::uint32_t l1_way = mem.l1.find(addr);
    const bool l1_hit = l1_way < mem.l1.ways();

    // Reads bypass buffered writes except to the same line: if the
    // line is not cached but a write to it is still draining, the
    // read must wait for the drain.
    if (!l1_hit) {
        const Cycles pend = std::max(mem.l1Wb.pendingLineDrain(line),
                                     mem.l2Wb.pendingLineDrain(l2line));
        if (pend > now)
            now = pend;
    }

    // Outstanding fill (typically prefetch-initiated)?  The register
    // file is empty whenever no prefetch is in flight; the empty()
    // test skips a hash probe on every read of a prefetch-free run.
    if (!mem.inFlight.empty()) {
        auto in_flight = mem.inFlight.find(line);
        if (in_flight != mem.inFlight.end()) {
            const InFlightFill fill = in_flight->second;
            mem.inFlight.erase(in_flight);
            if (fill.readyAt > now) {
                // Late prefetch: the miss is only partially hidden.
                res.completeAt = fill.readyAt;
                res.l1Miss = true;
                res.level = ServiceLevel::InFlight;
                res.cause = fill.cause;
                res.partiallyHidden = fill.byPrefetch;
                res.stall = res.completeAt - (now + cfg.l1HitLatency);
                notifyAccess(MemOpKind::Read, cpu, addr, issued, ctx, res);
                return res;
            }
            // Fill completed before the demand access: a full hit.
        }
    }

    if (l1_hit) {
        mem.l1.promoteWay(addr, l1_way);
        res.completeAt = now + cfg.l1HitLatency;
        notifyAccess(MemOpKind::Read, cpu, addr, issued, ctx, res);
        return res;
    }

    res.l1Miss = true;
    res.cause = classifyMiss(mem, line);

    if (mem.l2.touch(addr)) {
        res.level = ServiceLevel::L2;
        res.completeAt = now + cfg.l2HitLatency;
    } else {
        res.level = ServiceLevel::Memory;
        const Cycles detect = now + cfg.l2HitLatency;
        const Cycles arrive = busReadLine(cpu, l2line, detect, false);
        res.completeAt = arrive;
        if (ctx.allocate)
            fillL2(cpu, l2line, readFillState(cpu, l2line), arrive);
    }

    if (ctx.allocate) {
        fillL1(cpu, addr, ctx.blockOpBody);
    } else {
        // Bypassed read: in a processor-driven copy this line would
        // now be cached; its first future touch is a reuse miss.
        bypassMarks.set(line, MarkTable::bypass);
    }
    res.stall = res.completeAt - (now + cfg.l1HitLatency);
    opEnd(MemOpKind::Read, cpu, addr);
    notifyAccess(MemOpKind::Read, cpu, addr, issued, ctx, res);
    return res;
}

AccessResult
MemorySystem::write(CpuId cpu, Addr addr, Cycles now,
                    const AccessContext &ctx)
{
    opBegin(MemOpKind::Write, cpu, addr);
    CpuMem &mem = cpus[cpu];
    AccessResult res;
    const Cycles issued = now;
    const Addr line = l1Line(addr);
    const Addr l2line = l2Line(addr);

    // Stall only on a full L1-to-L2 write buffer.
    const Cycles wb_stall = mem.l1Wb.stallUntilSlot(now);
    res.stall = wb_stall;
    now += wb_stall;
    res.completeAt = now + cfg.l1HitLatency;

    const Cycles service = mem.l1Wb.nextServiceStart(now);

    // One tag probe serves the dispatch on the line's state and the
    // owned-write LRU promotion.
    const std::uint32_t l2_way = mem.l2.find(addr);
    const LineState st = l2_way < mem.l2.ways()
                             ? mem.l2.stateOfWay(addr, l2_way)
                             : LineState::Invalid;
    Cycles drained;
    if (st == LineState::Modified || st == LineState::Exclusive) {
        // Local write: silently upgrade Exclusive to Modified.  The
        // already-Modified case (the hot write path) needs no state
        // change, so the extra tag probe is skipped.
        mem.l2.promoteWay(addr, l2_way);
        if (st == LineState::Exclusive)
            setL2State(cpu, addr, LineState::Modified);
        drained = service + cfg.l2WriteLatency;
    } else if (isUpdateAddr(addr)) {
        // Firefly update protocol for this page.
        Cycles ready = service + cfg.l2WriteLatency;
        if (st == LineState::Invalid) {
            // Fetch the line first (sharers keep their copies).
            const Cycles arrive = busReadLine(cpu, l2line, ready, false);
            fillL2(cpu, l2line, LineState::Shared, arrive);
            ready = arrive;
        }
        if (sharedElsewhere(cpu, l2line)) {
            // Firefly sharers keep their copies, so the holder mask is
            // the same before and after the update snoop.
            const std::uint32_t rmask =
                numa != nullptr ? remoteHolderMask(cpu, l2line) : 0;
            snoopUpdate(cpu, l2line);
            setL2State(cpu, l2line, LineState::Shared);
            drained = scheduleL2WbEntry(cpu, mem, l2line, ready,
                                        cfg.updateOccupancy, BusTxn::Update,
                                        ctx.blockOpBody ? 8 : 4, rmask);
        } else {
            // No sharers: behave like an ordinary owned write.
            setL2State(cpu, l2line, LineState::Modified);
            drained = ready;
        }
    } else if (st == LineState::Shared) {
        // Invalidation-only transaction, then write locally.  The
        // holder mask must precede the snoop that kills the copies.
        const std::uint32_t rmask =
            numa != nullptr ? remoteHolderMask(cpu, l2line) : 0;
        snoopInvalidate(cpu, l2line);
        setL2State(cpu, addr, LineState::Modified);
        drained = scheduleL2WbEntry(cpu, mem, l2line,
                                    service + cfg.l2WriteLatency,
                                    cfg.invalOccupancy, BusTxn::Invalidate,
                                    0, rmask);
    } else {
        // Write miss: read-for-ownership, allocate Modified.  The
        // buffer slot frees once the bus phase ends; the returning
        // data overlaps with later drains (the secondary cache is
        // lockup-free).
        const Cycles slot_wait = mem.l2Wb.stallUntilSlot(service);
        const Cycles start =
            mem.l2Wb.nextServiceStart(service + slot_wait);
        const Cycles arrive = busReadLine(cpu, l2line, start, true);
        fillL2(cpu, l2line, LineState::Modified, arrive);
        drained = arrive - cfg.busMemLatency() + cfg.lineTransferOccupancy;
        mem.l2Wb.push(l2line, drained);
    }

    mem.l1Wb.push(line, drained);

    // Write-allocate primary cache: install the line so subsequent
    // reads of freshly written data hit (the fill itself happens in
    // the background and does not stall the processor).
    if (!mem.l1.contains(addr))
        fillL1(cpu, addr, ctx.blockOpBody);

    opEnd(MemOpKind::Write, cpu, addr);
    notifyAccess(MemOpKind::Write, cpu, addr, issued, ctx, res);
    return res;
}

void
MemorySystem::prefetch(CpuId cpu, Addr addr, Cycles now,
                       const AccessContext &ctx)
{
    opBegin(MemOpKind::Prefetch, cpu, addr);
    CpuMem &mem = cpus[cpu];
    const Addr line = l1Line(addr);
    const Addr l2line = l2Line(addr);

    if (mem.l1.contains(addr) ||
        (!mem.inFlight.empty() && mem.inFlight.count(line))) {
        // Already present or already being fetched: a trivial hit.
        AccessResult res;
        res.completeAt = now;
        notifyAccess(MemOpKind::Prefetch, cpu, addr, now, ctx, res);
        return;
    }

    // Prune completed fills; drop the prefetch when no outstanding-
    // miss register is free (lockup-free cache with finite MSHRs).
    for (auto it = mem.inFlight.begin(); it != mem.inFlight.end();) {
        if (it->second.readyAt <= now)
            it = mem.inFlight.erase(it);
        else
            ++it;
    }
    if (mem.inFlight.size() >= cfg.mshrCount) {
        AccessResult res;
        res.completeAt = now;
        notifyAccess(MemOpKind::Prefetch, cpu, addr, now, ctx, res,
                     /*dropped=*/true);
        return;
    }

    InFlightFill fill;
    fill.byPrefetch = true;
    fill.cause = classifyMiss(mem, line);

    if (mem.l2.contains(addr)) {
        fill.readyAt = now + cfg.l2HitLatency;
    } else {
        const Cycles detect = now + cfg.l2HitLatency;
        const Cycles arrive = busReadLine(cpu, l2line, detect, false);
        fillL2(cpu, l2line, readFillState(cpu, l2line), arrive);
        fill.readyAt = arrive;
    }

    fillL1(cpu, addr, ctx.blockOpBody);
    mem.inFlight.emplace(line, fill);
    opEnd(MemOpKind::Prefetch, cpu, addr);
    if (fan.wantsAccessEvents()) {
        AccessResult res;
        res.completeAt = now;
        res.l1Miss = true;
        res.cause = fill.cause;
        res.level = ServiceLevel::Memory;
        notifyAccess(MemOpKind::Prefetch, cpu, addr, now, ctx, res);
    }
}

AccessResult
MemorySystem::writeBypassLine(CpuId cpu, Addr addr, Cycles now,
                              const AccessContext &ctx)
{
    opBegin(MemOpKind::BypassWrite, cpu, addr);
    (void)ctx;
    CpuMem &mem = cpus[cpu];
    AccessResult res;
    const Addr l2line = l2Line(addr);

    // The bypass register feeds the L2-to-bus write buffer directly;
    // the processor stalls when that buffer is full.
    const Cycles slot_wait = mem.l2Wb.stallUntilSlot(now);
    res.stall = slot_wait;
    now += slot_wait;
    res.completeAt = now + cfg.l1HitLatency;

    // Stale copies elsewhere must die; the full-line write then goes
    // straight to memory.
    const std::uint32_t rmask =
        numa != nullptr ? remoteHolderMask(cpu, l2line) : 0;
    snoopInvalidate(cpu, l2line);
    const Cycles start = mem.l2Wb.nextServiceStart(now);
    if (numa == nullptr) {
        const Cycles grant =
            theBus.acquire(start, cfg.lineTransferOccupancy,
                           BusTxn::WriteBack, cfg.l2LineSize);
        mem.l2Wb.push(l2line, grant + cfg.lineTransferOccupancy);
    } else {
        const unsigned socket = cfg.socketOf(cpu);
        const Cycles grant = numa->socketBus[socket].acquire(
            start, cfg.lineTransferOccupancy, BusTxn::WriteBack,
            cfg.l2LineSize);
        mem.l2Wb.push(l2line,
                      numaWriteDone(socket, l2line, grant,
                                    cfg.lineTransferOccupancy,
                                    BusTxn::WriteBack, cfg.l2LineSize,
                                    rmask, /*snoop_broadcast=*/true));
    }

    // The destination line ends up uncached: future first reuses miss.
    for (std::uint32_t off = 0; off < cfg.l2LineSize; off += cfg.l1LineSize)
        bypassMarks.set(l2line + off, MarkTable::bypass);
    opEnd(MemOpKind::BypassWrite, cpu, addr);
    notifyAccess(MemOpKind::BypassWrite, cpu, addr, now - res.stall, ctx,
                 res, /*dropped=*/false, /*whole_line=*/true,
                 /*invalidated=*/true);
    return res;
}

AccessResult
MemorySystem::writeBypassWord(CpuId cpu, Addr addr, Cycles now,
                              const AccessContext &ctx, bool invalidate)
{
    opBegin(MemOpKind::BypassWrite, cpu, addr);
    (void)ctx;
    CpuMem &mem = cpus[cpu];
    AccessResult res;
    const Addr l2line = l2Line(addr);

    const Cycles slot_wait = mem.l2Wb.stallUntilSlot(now);
    res.stall = slot_wait;
    now += slot_wait;
    res.completeAt = now + cfg.l1HitLatency;

    const std::uint32_t rmask = numa != nullptr && invalidate
                                    ? remoteHolderMask(cpu, l2line)
                                    : 0;
    if (invalidate)
        snoopInvalidate(cpu, l2line);
    const Cycles start = mem.l2Wb.nextServiceStart(now);
    if (numa == nullptr) {
        const Cycles grant = theBus.acquire(start, cfg.wordWriteOccupancy,
                                            BusTxn::WriteBack, 4);
        mem.l2Wb.push(l2line, grant + cfg.wordWriteOccupancy);
    } else {
        const unsigned socket = cfg.socketOf(cpu);
        const Cycles grant = numa->socketBus[socket].acquire(
            start, cfg.wordWriteOccupancy, BusTxn::WriteBack, 4);
        mem.l2Wb.push(l2line,
                      numaWriteDone(socket, l2line, grant,
                                    cfg.wordWriteOccupancy,
                                    BusTxn::WriteBack, 4, rmask,
                                    /*snoop_broadcast=*/invalidate));
    }

    bypassMarks.set(l1Line(addr), MarkTable::bypass);
    opEnd(MemOpKind::BypassWrite, cpu, addr);
    notifyAccess(MemOpKind::BypassWrite, cpu, addr, now - res.stall, ctx,
                 res, /*dropped=*/false, /*whole_line=*/false, invalidate);
    return res;
}

void
MemorySystem::prefetchIntoBuffer(CpuId cpu, Addr addr, Cycles now)
{
    opBegin(MemOpKind::Prefetch, cpu, addr);
    CpuMem &mem = cpus[cpu];
    const Addr line = l1Line(addr);

    unsigned pending = 0;
    for (const auto &entry : mem.prefetchBuffer) {
        if (entry.lineAddr == line)
            return; // Already buffered.
        if (entry.readyAt > now)
            ++pending;
    }
    // The buffer's fetch engine sustains a few outstanding fills;
    // further prefetches are dropped (and show up as misses the
    // prefetch could not hide, as in the paper's Blk_ByPref).
    if (pending >= 4)
        return;

    if (mem.prefetchBuffer.size() >= cfg.blockPrefetchBufferLines)
        mem.prefetchBuffer.pop_front();

    BufferLine entry;
    entry.lineAddr = line;
    if (mem.l1.contains(addr)) {
        entry.readyAt = now + cfg.l1HitLatency;
    } else if (mem.l2.contains(addr)) {
        entry.readyAt = now + cfg.l2HitLatency;
    } else {
        // Fetch at primary-line granularity; occupancy scales with
        // the fraction of a secondary line moved.
        const Cycles occ = std::max<Cycles>(
            cfg.invalOccupancy,
            cfg.lineTransferOccupancy * cfg.l1LineSize / cfg.l2LineSize);
        if (numa == nullptr) {
            const Cycles grant = theBus.acquire(now, occ, BusTxn::LineFill,
                                                cfg.l1LineSize);
            entry.readyAt = grant + cfg.busMemLatency();
        } else {
            entry.readyAt =
                numaReadLine(cfg.socketOf(cpu), l2Line(addr), now, occ,
                             cfg.l1LineSize,
                             remoteHolderMask(cpu, l2Line(addr)));
        }
        // Snoop: a Modified owner must supply and demote.
        for (CpuId c = 0; c < cfg.numCpus; ++c) {
            if (c == cpu)
                continue;
            if (cpus[c].l2.state(l2Line(addr)) == LineState::Modified)
                setL2State(c, l2Line(addr), LineState::Shared);
        }
    }
    mem.prefetchBuffer.push_back(entry);
    opEnd(MemOpKind::Prefetch, cpu, addr);
    if (fan.wantsAccessEvents())
        fan.onBufferPrefetchFill(cpu, addr);
}

AccessResult
MemorySystem::readViaPrefetchBuffer(CpuId cpu, Addr addr, Cycles now,
                                    const AccessContext &ctx)
{
    opBegin(MemOpKind::Read, cpu, addr);
    CpuMem &mem = cpus[cpu];
    const Addr line = l1Line(addr);

    // Own caches first (a cache access is performed when the block
    // data is already resident) — without allocation.
    if (mem.l1.contains(addr)) {
        AccessResult res;
        res.completeAt = now + cfg.l1HitLatency;
        notifyAccess(MemOpKind::Read, cpu, addr, now, ctx, res,
                     /*dropped=*/false, /*whole_line=*/false,
                     /*invalidated=*/false, /*via_buffer=*/true);
        return res;
    }

    for (auto it = mem.prefetchBuffer.begin();
         it != mem.prefetchBuffer.end(); ++it) {
        if (it->lineAddr != line)
            continue;
        AccessResult res;
        if (it->readyAt > now) {
            // Prefetch not issued early enough: partial hiding.
            res.completeAt = it->readyAt;
            res.l1Miss = true;
            res.level = ServiceLevel::InFlight;
            res.cause = classifyMiss(mem, line);
            res.partiallyHidden = true;
            res.stall = res.completeAt - (now + cfg.l1HitLatency);
        } else {
            res.completeAt = now + cfg.l1HitLatency;
            res.level = ServiceLevel::PrefetchBuffer;
        }
        notifyAccess(MemOpKind::Read, cpu, addr, now, ctx, res,
                     /*dropped=*/false, /*whole_line=*/false,
                     /*invalidated=*/false, /*via_buffer=*/true);
        return res;
    }

    // Not buffered at all: fetch without allocating (read() marks
    // the line as a reuse candidate).
    AccessContext no_alloc = ctx;
    no_alloc.allocate = false;
    return read(cpu, addr, now, no_alloc);
}

void
MemorySystem::codeFill(CpuId cpu, Addr code_addr, std::uint32_t bytes)
{
    opBegin(MemOpKind::CodeFill, cpu, code_addr);
    // The secondary cache is unified: instruction fills occupy lines
    // and evict data.  The timing and bus cost of instruction misses
    // are modeled statistically (SimOptions::osImissCpi); here only
    // the capacity effect on data is applied.
    CpuMem &mem = cpus[cpu];
    const Addr end = alignUp(code_addr + bytes, cfg.l2LineSize);
    for (Addr a = alignDown(code_addr, cfg.l2LineSize); a < end;
         a += cfg.l2LineSize) {
        if (mem.l2.state(a) != LineState::Invalid)
            continue;
        // The fetch snoops like any bus read: a remote owner demotes
        // to Shared and the requester installs Shared when copies
        // exist elsewhere — two processors running the same code must
        // not both hold the line Exclusive.
        for (CpuId c = 0; c < cfg.numCpus; ++c) {
            if (c == cpu)
                continue;
            const LineState st = cpus[c].l2.state(a);
            if (st == LineState::Modified || st == LineState::Exclusive)
                setL2State(c, a, LineState::Shared);
        }
        installL2(cpu, a, readFillState(cpu, a));
    }
    opEnd(MemOpKind::CodeFill, cpu, code_addr);
    if (fan.wantsAccessEvents())
        fan.onCodeFill(cpu, code_addr, bytes);
}

Cycles
MemorySystem::instructionFetch(CpuId cpu, Addr code_addr,
                               std::uint32_t bytes, Cycles now)
{
    opBegin(MemOpKind::InstructionFetch, cpu, code_addr);
    CpuMem &mem = cpus[cpu];
    Cycles stall = 0;
    const Addr end = alignUp(code_addr + bytes, cfg.iCacheLineSize);
    for (Addr a = alignDown(code_addr, cfg.iCacheLineSize); a < end;
         a += cfg.iCacheLineSize) {
        if (mem.icache.contains(a))
            continue;
        mem.icache.fill(a);
        const Addr l2line = l2Line(a);
        if (mem.l2.state(l2line) != LineState::Invalid) {
            stall += cfg.l2HitLatency;
            continue;
        }
        // Fetch the code line over the bus into the unified L2.  The
        // read snoops: remote owners demote and the fill state obeys
        // the protocol (Shared when copies exist elsewhere).
        if (numa == nullptr) {
            const Cycles grant =
                theBus.acquire(now + stall + cfg.l2HitLatency,
                               cfg.lineTransferOccupancy,
                               BusTxn::LineFill, cfg.l2LineSize);
            stall = grant + cfg.busMemLatency() - now;
        } else {
            const Cycles arrive = numaReadLine(
                cfg.socketOf(cpu), l2line,
                now + stall + cfg.l2HitLatency,
                cfg.lineTransferOccupancy, cfg.l2LineSize,
                remoteHolderMask(cpu, l2line));
            stall = arrive - now;
        }
        for (CpuId c = 0; c < cfg.numCpus; ++c) {
            if (c == cpu)
                continue;
            const LineState st = cpus[c].l2.state(l2line);
            if (st == LineState::Modified || st == LineState::Exclusive)
                setL2State(c, l2line, LineState::Shared);
        }
        fillL2(cpu, l2line, readFillState(cpu, l2line), now + stall);
    }
    opEnd(MemOpKind::InstructionFetch, cpu, code_addr);
    return stall;
}

Cycles
MemorySystem::fence(CpuId cpu, Cycles now)
{
    CpuMem &mem = cpus[cpu];
    Cycles done = now;
    if (mem.l1Wb.lastCompletion() > done)
        done = mem.l1Wb.lastCompletion();
    if (mem.l2Wb.lastCompletion() > done)
        done = mem.l2Wb.lastCompletion();
    mem.l1Wb.prune(done);
    mem.l2Wb.prune(done);
    return done;
}

Cycles
MemorySystem::dmaBlockOp(CpuId cpu, const BlockOp &op, Cycles now)
{
    opBegin(MemOpKind::Dma, cpu, op.dst);
    if (fan.active())
        fan.onDmaBegin(cpu, op);
    CpuMem &mem = cpus[cpu];
    const Addr src_begin = op.isCopy() ? l2Line(op.src) : invalidAddr;
    const Addr dst_begin = l2Line(op.dst);
    const Addr dst_end = alignUp(op.dst + op.size, cfg.l2LineSize);

    // Sockets the transfer must reach beyond the originator's: any
    // remote holder of an involved line, and any remote home of the
    // moved data.  Captured before the snoops below mutate state.
    std::uint32_t rmask = 0;
    if (numa != nullptr) {
        const unsigned socket = cfg.socketOf(cpu);
        const auto fold = [&](Addr a) {
            const unsigned home = cfg.homeSocketOf(a);
            if (home != socket)
                rmask |= 1u << home;
            for (CpuId c = 0; c < cfg.numCpus; ++c) {
                const unsigned s = cfg.socketOf(c);
                if (s != socket &&
                    cpus[c].l2.state(a) != LineState::Invalid)
                    rmask |= 1u << s;
            }
        };
        for (Addr a = dst_begin; a < dst_end; a += cfg.l2LineSize)
            fold(a);
        if (op.isCopy()) {
            const Addr src_end = alignUp(op.src + op.size, cfg.l2LineSize);
            for (Addr a = src_begin; a < src_end; a += cfg.l2LineSize)
                fold(a);
        }
    }

    // A copy moves each 8 bytes across the bus twice (source read,
    // destination write); a zero only writes, at twice the rate.
    const Cycles per8 =
        op.isCopy() ? cfg.dmaPer8Bytes : (cfg.dmaPer8Bytes + 1) / 2;
    Cycles occupancy = cfg.dmaStartup + ((op.size + 7) / 8) * per8;

    // Dirty source lines slow the transfer: their owners supply them.
    if (op.isCopy()) {
        const Addr src_end = alignUp(op.src + op.size, cfg.l2LineSize);
        for (Addr a = src_begin; a < src_end; a += cfg.l2LineSize) {
            for (CpuId c = 0; c < cfg.numCpus; ++c) {
                if (cpus[c].l2.state(a) == LineState::Modified) {
                    occupancy += cfg.dmaDirtySupplyPenalty;
                    setL2State(c, a, LineState::Shared);
                    break;
                }
            }
        }
    }

    Cycles done;
    if (numa == nullptr) {
        const Cycles grant = theBus.acquire(now, occupancy, BusTxn::Dma,
                                            op.size);
        done = grant + occupancy;
    } else {
        // The engine holds its socket's bus for the whole transfer;
        // a cross-socket operation holds the link and every involved
        // remote bus too (DMA is not split-transaction).
        const unsigned socket = cfg.socketOf(cpu);
        const Cycles grant = numa->socketBus[socket].acquire(
            now, occupancy, BusTxn::Dma, op.size);
        done = grant + occupancy;
        if (rmask != 0) {
            const Cycles lg = numa->link.acquire(grant, occupancy,
                                                 BusTxn::Dma, op.size);
            for (unsigned r = 0; r < cfg.numSockets; ++r) {
                if (r == socket || ((rmask >> r) & 1u) == 0)
                    continue;
                const Cycles rg = numa->socketBus[r].acquire(
                    lg, occupancy, BusTxn::Dma, 0);
                done = std::max(done, rg + occupancy);
            }
        }
    }

    // Destination lines: resident copies anywhere are updated in
    // place (the update propagates to the primary caches, whose
    // copies simply stay valid); unresident lines stay out of the
    // caches and become reuse candidates.
    for (Addr a = dst_begin; a < dst_end; a += cfg.l2LineSize) {
        bool cached_anywhere = false;
        for (CpuId c = 0; c < cfg.numCpus; ++c) {
            if (cpus[c].l2.state(a) != LineState::Invalid) {
                cached_anywhere = true;
                setL2State(c, a, LineState::Shared);
                for (std::uint32_t off = 0; off < cfg.l2LineSize;
                     off += cfg.l1LineSize) {
                    // Updated data: clear any stale coherence marks.
                    cpus[c].marks.clear(a + off, MarkTable::coherence);
                }
            }
        }
        for (std::uint32_t off = 0; off < cfg.l2LineSize;
             off += cfg.l1LineSize) {
            if (cached_anywhere)
                bypassMarks.clear(a + off, MarkTable::bypass);
            else
                bypassMarks.set(a + off, MarkTable::bypass);
        }
    }

    // Source lines the originator does not hold would have been
    // fetched into its caches by a processor-driven copy; with DMA
    // they stay out, so their first future touch is a reuse.
    if (op.isCopy()) {
        const Addr src_end = alignUp(op.src + op.size, cfg.l2LineSize);
        for (Addr a = src_begin; a < src_end; a += cfg.l2LineSize) {
            if (mem.l2.state(a) != LineState::Invalid)
                continue;
            for (std::uint32_t off = 0; off < cfg.l2LineSize;
                 off += cfg.l1LineSize)
                bypassMarks.set(a + off, MarkTable::bypass);
        }
    }

    opEnd(MemOpKind::Dma, cpu, op.dst);
    if (fan.wantsAccessEvents())
        fan.onDma(cpu, op);
    return done;
}

namespace
{

/**
 * Write one mark class as a sorted address list — the same bytes the
 * pre-MarkTable unordered_set serialization produced.
 */
void
putMarkClass(binio::BinaryWriter &w, const MarkTable &t, std::uint8_t flag)
{
    const std::vector<Addr> sorted = t.snapshot(flag);
    w.put(std::uint64_t(sorted.size()));
    for (const Addr a : sorted)
        w.put(a);
}

bool
getMarkClass(binio::BinaryReader &r, MarkTable &t, std::uint8_t flag)
{
    std::uint64_t n = 0;
    if (!r.get(n) || n > (1ull << 32))
        return false;
    t.clearClass(flag);
    for (std::uint64_t i = 0; i < n; ++i) {
        Addr a = 0;
        if (!r.get(a))
            return false;
        t.set(a, flag);
    }
    return true;
}

} // namespace

void
MemorySystem::saveState(binio::BinaryWriter &w) const
{
    w.put(std::uint32_t(cpus.size()));
    for (const CpuMem &mem : cpus) {
        mem.l1.saveState(w);
        mem.icache.saveState(w);
        mem.l2.saveState(w);
        mem.l1Wb.saveState(w);
        mem.l2Wb.saveState(w);

        std::vector<std::pair<Addr, InFlightFill>> fills(
            mem.inFlight.begin(), mem.inFlight.end());
        std::sort(fills.begin(), fills.end(),
                  [](const auto &a, const auto &b) {
                      return a.first < b.first;
                  });
        w.put(std::uint64_t(fills.size()));
        for (const auto &[line, fill] : fills) {
            w.put(line);
            w.put(fill.readyAt);
            w.put(std::uint8_t(fill.cause));
            w.put(std::uint8_t(fill.byPrefetch));
        }

        putMarkClass(w, mem.marks, MarkTable::coherence);
        putMarkClass(w, mem.marks, MarkTable::blockEvict);

        w.put(std::uint64_t(mem.prefetchBuffer.size()));
        for (const BufferLine &line : mem.prefetchBuffer) {
            w.put(line.lineAddr);
            w.put(line.readyAt);
        }
    }
    putMarkClass(w, bypassMarks, MarkTable::bypass);
    theBus.saveState(w);
    // The flat machine's byte format is frozen (golden snapshots);
    // the NUMA section exists only when the interconnect does.
    if (numa != nullptr) {
        for (const Bus &b : numa->socketBus)
            b.saveState(w);
        numa->link.saveState(w);
        w.put(numa->counters.snoopsFiltered);
        w.put(numa->counters.snoopsForwarded);
        w.put(numa->counters.localHomeReads);
        w.put(numa->counters.remoteHomeReads);
    }
}

bool
MemorySystem::loadState(binio::BinaryReader &r, std::string *error)
{
    const auto fail = [error](const char *why) {
        if (error != nullptr)
            *error = why;
        return false;
    };

    std::uint32_t n = 0;
    if (!r.get(n) || n != cpus.size())
        return fail("cpu count mismatch");
    for (CpuMem &mem : cpus) {
        if (!mem.l1.loadState(r))
            return fail("bad primary-cache state");
        if (!mem.icache.loadState(r))
            return fail("bad instruction-cache state");
        if (!mem.l2.loadState(r))
            return fail("bad secondary-cache state");
        if (!mem.l1Wb.loadState(r))
            return fail("bad primary write-buffer state");
        if (!mem.l2Wb.loadState(r))
            return fail("bad secondary write-buffer state");

        std::uint64_t count = 0;
        if (!r.get(count) || count > (1u << 24))
            return fail("bad in-flight fill count");
        mem.inFlight.clear();
        for (std::uint64_t i = 0; i < count; ++i) {
            Addr line = 0;
            InFlightFill fill;
            std::uint8_t cause = 0;
            std::uint8_t by_prefetch = 0;
            if (!r.get(line) || !r.get(fill.readyAt) || !r.get(cause) ||
                !r.get(by_prefetch) ||
                cause > std::uint8_t(MissCause::Plain))
                return fail("bad in-flight fill entry");
            fill.cause = MissCause(cause);
            fill.byPrefetch = by_prefetch != 0;
            mem.inFlight.emplace(line, fill);
        }

        if (!getMarkClass(r, mem.marks, MarkTable::coherence))
            return fail("bad coherence-invalidated set");
        if (!getMarkClass(r, mem.marks, MarkTable::blockEvict))
            return fail("bad block-op-evicted set");

        if (!r.get(count) || count > cfg.blockPrefetchBufferLines)
            return fail("bad prefetch-buffer count");
        mem.prefetchBuffer.clear();
        for (std::uint64_t i = 0; i < count; ++i) {
            BufferLine line;
            if (!r.get(line.lineAddr) || !r.get(line.readyAt))
                return fail("bad prefetch-buffer entry");
            mem.prefetchBuffer.push_back(line);
        }
    }
    if (!getMarkClass(r, bypassMarks, MarkTable::bypass))
        return fail("bad bypassed-lines set");
    if (!theBus.loadState(r))
        return fail("bad bus state");
    if (numa != nullptr) {
        for (Bus &b : numa->socketBus)
            if (!b.loadState(r))
                return fail("bad socket-bus state");
        if (!numa->link.loadState(r))
            return fail("bad inter-socket link state");
        if (!r.get(numa->counters.snoopsFiltered) ||
            !r.get(numa->counters.snoopsForwarded) ||
            !r.get(numa->counters.localHomeReads) ||
            !r.get(numa->counters.remoteHomeReads))
            return fail("bad numa counters");
    }
    return true;
}

} // namespace oscache
