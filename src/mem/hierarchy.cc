#include "hierarchy.hh"

#include <algorithm>
#include <bit>
#include <string>

#include "common/log.hh"
#include "common/trace.hh"

namespace ztx::mem {

const char *
xiKindName(XiKind kind)
{
    switch (kind) {
      case XiKind::ReadOnly: return "read-only";
      case XiKind::Demote: return "demote";
      case XiKind::Exclusive: return "exclusive";
      case XiKind::Lru: return "lru";
    }
    return "?";
}

Hierarchy::Hierarchy(const Topology &topo, const LatencyModel &lat,
                     const HierarchyGeometry &geo)
    : topo_(topo), lat_(lat), geo_(geo), stats_("hierarchy")
{
    const unsigned n = topo_.numCpus();
    if (n == 0)
        ztx_fatal("topology has zero CPUs");
    if (n > maxDirectoryCpus)
        ztx_fatal("topology has ", n, " CPUs; directory supports ",
                  maxDirectoryCpus);
    // Size the directory's per-line sharer words to this machine
    // instead of the compile-time worst case.
    dir_.configure(n);
    l1_.reserve(n);
    l2_.reserve(n);
    for (unsigned i = 0; i < n; ++i) {
        l1_.emplace_back(geo_.l1, "l1." + std::to_string(i));
        l2_.emplace_back(geo_.l2, "l2." + std::to_string(i));
        lruExt_.emplace_back(geo_.l1.rows(), false);
    }
    lruExtTracked_.resize(n);
    l2Overflow_.resize(n);
    hot_.resize(n);
    l3MaskTracked_ = topo_.numChips() <= maxDirectoryChips;
    for (unsigned c = 0; c < topo_.numChips(); ++c)
        l3_.emplace_back(geo_.l3, "l3." + std::to_string(c));
    for (unsigned m = 0; m < topo_.numMcms(); ++m)
        l4_.emplace_back(geo_.l4, "l4." + std::to_string(m));
    clients_.resize(n, nullptr);
}

void
Hierarchy::setClient(CpuId cpu, CacheClient *client)
{
    clients_.at(cpu) = client;
}

CacheClient *
Hierarchy::client(CpuId cpu) const
{
    CacheClient *c = clients_.at(cpu);
    if (!c)
        ztx_panic("no CacheClient registered for cpu ", cpu);
    return c;
}

AccessResult
Hierarchy::localHit(CpuId cpu, Addr line)
{
    AccessResult res;
    const auto p1 = l1_[cpu].probeForInsert(line);
    if (p1.hit) {
        l1_[cpu].touchAt(p1);
        res.source = DataSource::L1;
        res.latency = lat_.l1Hit;
        ++hot_[cpu].l1Hit;
        return res;
    }
    // Inclusivity: a held line must be L2-resident — either in the
    // array or pending in the overflow buffer (a fast-path install
    // whose real insert happens at the barrier drain).
    const auto p2 = l2_[cpu].probeForInsert(line);
    if (p2.hit)
        l2_[cpu].touchAt(p2);
    else if (!inL2Overflow(cpu, line))
        ztx_panic("directory says cpu ", cpu, " holds line but L2 miss");
    insertL1At(cpu, line, p1);
    res.source = DataSource::L2;
    res.latency = lat_.l2Hit;
    ++hot_[cpu].l2Hit;
    return res;
}

DataSource
Hierarchy::findSource(CpuId cpu, Addr line) const
{
    if (l1_[cpu].contains(line))
        return DataSource::L1;
    if (l2_[cpu].contains(line))
        return DataSource::L2;

    // Nearest other holder supplies the line (cache intervention).
    const DirectoryEntry e = dir_.lookup(line);
    Distance best = Distance::CrossMcm;
    bool found = false;
    for (unsigned h = 0; h < topo_.numCpus(); ++h) {
        if (CpuId(h) == cpu)
            continue;
        if (e.owner == CpuId(h) || e.sharers[h]) {
            const Distance d = topo_.distance(cpu, h);
            if (!found || d < best)
                best = d;
            found = true;
        }
    }
    if (found) {
        switch (best) {
          case Distance::SameChip: return DataSource::L3;
          case Distance::SameMcm: return DataSource::L4;
          default: return DataSource::RemoteMcm;
        }
    }

    if (l3_[topo_.chipOf(cpu)].contains(line))
        return DataSource::L3;
    if (l4_[topo_.mcmOf(cpu)].contains(line))
        return DataSource::L4;
    for (unsigned m = 0; m < topo_.numMcms(); ++m)
        if (m != topo_.mcmOf(cpu) && l4_[m].contains(line))
            return DataSource::RemoteMcm;
    return DataSource::Memory;
}

XiResponse
Hierarchy::sendXi(XiKind kind, Addr line, CpuId target, CpuId requester)
{
    const std::uint8_t flags = l1_[target].flagsOf(line);
    const XiContext ctx{
        kind, line, requester,
        bool(flags & line_flag::txRead),
        bool(flags & line_flag::txDirty),
        lruExtensionHit(target, line),
        poisonedCached(line),
    };
    // XI counters live in the target's hot slot: in the fast path
    // the XI is delivered by the target's own shard, so the shared
    // StatGroup must not be touched from the parallel phase.
    switch (kind) {
      case XiKind::ReadOnly: ++hot_[target].xiReadOnly; break;
      case XiKind::Demote: ++hot_[target].xiDemote; break;
      case XiKind::Exclusive: ++hot_[target].xiExclusive; break;
      case XiKind::Lru: ++hot_[target].xiLru; break;
    }
    ztx_trace(trace::Category::Xi, xiKindName(kind), " XI to cpu",
              target, " line=0x", std::hex, line, std::dec,
              " from cpu", requester);
    const XiResponse resp = client(target)->incomingXi(ctx);
    if (resp == XiResponse::Reject) {
        if (kind != XiKind::Demote && kind != XiKind::Exclusive)
            ztx_panic("client rejected a non-rejectable ",
                      xiKindName(kind), " XI");
        ++hot_[target].xiRejected;
    }
    return resp;
}

Cycles
Hierarchy::probeDelay(XiKind kind, CpuId target, CpuId requester)
{
    if (!xiProbe_)
        return 0;
    const Cycles delay = xiProbe_->xiDelay(kind, target, requester);
    if (delay)
        ++hot_[target].xiDelayed;
    return delay;
}

void
Hierarchy::removeFromCpu(CpuId cpu, Addr line)
{
    l1_[cpu].invalidate(line);
    if (!l2_[cpu].invalidate(line)) {
        // The copy may still be pending in the overflow buffer (a
        // same-shard XI can strip a line the fast path installed
        // earlier in the same quantum); cancel the pending insert.
        OverflowBuf &ob = l2Overflow_[cpu];
        for (unsigned i = 0; i < ob.n; ++i) {
            if (ob.lines[i] == line) {
                for (unsigned j = i + 1; j < ob.n; ++j)
                    ob.lines[j - 1] = ob.lines[j];
                --ob.n;
                break;
            }
        }
    }
    dir_.remove(line, cpu);
}

AccessResult
Hierarchy::fetch(CpuId cpu, Addr line, bool exclusive,
                 bool local_only)
{
    if (lineOffset(line) != 0)
        ztx_panic("fetch of non-line-aligned address");

    const DirectoryEntry e = dir_.lookup(line);
    const bool holds_it =
        e.owner == cpu ||
        (cpu < maxDirectoryCpus && e.sharers[cpu]);
    if (holds_it && (!exclusive || e.owner == cpu)) {
        ++hot_[cpu].fetchTotal;
        return localHit(cpu, line);
    }

    bool shard_local = false;
    if (local_only) {
        if (!shardLocalEligible(cpu, line, e)) {
            // Parallel phase: this access needs the fabric or a CPU
            // outside the shard. Defer without charging anything —
            // the step will be re-run serially at the barrier.
            AccessResult res;
            res.deferred = true;
            return res;
        }
        // Shard-local fast path: the line and every holder live
        // inside this CPU's shard, so the full protocol below runs
        // in the parallel phase touching only shard-owned state.
        shard_local = true;
    }
    ++hot_[cpu].fetchTotal;

    AccessResult res;
    res.shardLocal = shard_local;
    res.source = shard_local ? shardLocalSource(cpu, line)
                             : findSource(cpu, line);

    Cycles xi_cost = 0;
    if (e.owner != invalidCpu && e.owner != cpu) {
        // Another CPU owns the line exclusively.
        const CpuId owner = e.owner;
        const XiKind kind =
            exclusive ? XiKind::Exclusive : XiKind::Demote;
        const Distance d = topo_.distance(cpu, owner);
        const Cycles delay = probeDelay(kind, owner, cpu);
        if (sendXi(kind, line, owner, cpu) == XiResponse::Reject) {
            res.rejected = true;
            res.rejecter = owner;
            res.latency = lat_.rejectRetry(d) + delay;
            return res;
        }
        xi_cost = std::max(xi_cost, lat_.intervention(d) + delay);
        if (exclusive)
            removeFromCpu(owner, line);
        else
            dir_.demoteOwner(line); // owner keeps a read-only copy
    } else if (exclusive) {
        // Invalidate all other read-only copies.
        for (const CpuId s : dir_.sharersExcept(line, cpu)) {
            const Cycles delay =
                probeDelay(XiKind::ReadOnly, s, cpu);
            sendXi(XiKind::ReadOnly, line, s, cpu);
            removeFromCpu(s, line);
            xi_cost = std::max(
                xi_cost,
                lat_.intervention(topo_.distance(cpu, s)) + delay);
        }
    }

    if (exclusive)
        dir_.setExclusive(line, cpu);
    else
        dir_.addSharer(line, cpu);

    if (shard_local)
        installShardLocal(cpu, line);
    else
        installLocal(cpu, line);
    if (poisonActive_)
        propagatePoisonOnFill(cpu, line, e, res.source);
    res.latency = std::max(lat_.fetch(res.source), xi_cost);
    ++hot_[cpu].fetchMiss;
    return res;
}

void
Hierarchy::propagatePoisonOnFill(CpuId cpu, Addr line,
                                 const DirectoryEntry &pre,
                                 DataSource source)
{
    const auto it = poison_.find(line);
    if (it == poison_.end())
        return;
    if (it->second & poisonCached) {
        // A corrupt cached image supplied the fill: holder
        // intervention carries poison over the XI data transfer,
        // a shared-cache hit carries it on the fetch itself.
        bool other_holder =
            pre.owner != invalidCpu && pre.owner != cpu;
        if (!other_holder) {
            auto sharers = pre.sharers;
            if (cpu < maxDirectoryCpus)
                sharers.reset(cpu);
            other_holder = sharers.any();
        }
        if (other_holder)
            ++hot_[cpu].poisonSpreadXi;
        else
            ++hot_[cpu].poisonSpreadFetch;
    } else if ((it->second & poisonMemorySide) &&
               source == DataSource::Memory) {
        // The corrupt home image enters the cache hierarchy.
        // Memory-sourced fills never take the shard-local fast path,
        // so this value-only mutation happens serially.
        it->second |= poisonCached;
        ++hot_[cpu].poisonSpreadFetch;
    } else {
        return; // memory-side only, fill came from a clean cache
    }
    l1_[cpu].setFlags(line, line_flag::poison);
}

bool
Hierarchy::inL2Overflow(CpuId cpu, Addr line) const
{
    const OverflowBuf &ob = l2Overflow_[cpu];
    for (unsigned i = 0; i < ob.n; ++i)
        if (ob.lines[i] == line)
            return true;
    return false;
}

void
Hierarchy::drainL2Overflow()
{
    for (unsigned cpu = 0; cpu < topo_.numCpus(); ++cpu) {
        OverflowBuf &ob = l2Overflow_[cpu];
        for (unsigned i = 0; i < ob.n; ++i) {
            const Addr line = ob.lines[i];
            const auto p = l2_[cpu].probeForInsert(line);
            if (p.hit) {
                l2_[cpu].touchAt(p);
                continue; // resident after all — nothing pending
            }
            const auto victim = l2_[cpu].insertAt(p, line);
            if (victim.valid)
                handleL2Evict(cpu, victim.line);
        }
        ob.n = 0;
    }
}

void
Hierarchy::setShardPartition(unsigned groups_per_chip,
                             unsigned active_cpus)
{
    // Repartitioning with pending overflow installs would orphan
    // them (the drain is what completes the directory bookkeeping).
    for (const OverflowBuf &ob : l2Overflow_)
        if (ob.n != 0)
            ztx_panic("shard repartition with a non-empty L2 "
                      "overflow buffer; drain first");
    if (groups_per_chip == 0) {
        shardGroupsPerChip_ = 0;
        shardGroupSize_ = 1;
        shardBits_.clear();
        return;
    }
    if (topo_.numChips() > maxDirectoryChips)
        ztx_fatal("shard-local fast path needs the L3-residency "
                  "mask, which tracks at most ", maxDirectoryChips,
                  " chips (topology has ", topo_.numChips(), ")");
    const unsigned cores = topo_.coresPerChip();
    shardGroupsPerChip_ = std::min(groups_per_chip, cores);
    shardGroupSize_ = (cores + shardGroupsPerChip_ - 1) /
                      shardGroupsPerChip_;
    shardBits_.assign(topo_.numChips() * shardGroupsPerChip_, {});
    for (CpuId cpu = 0; cpu < active_cpus; ++cpu)
        shardBits_[shardOf(cpu)].set(cpu);
}

bool
Hierarchy::shardLocalEligible(CpuId cpu, Addr line,
                              const DirectoryEntry &e) const
{
    if (shardGroupsPerChip_ == 0)
        return false; // no partition registered: always defer

    // Every current holder must be inside this CPU's shard: any XI
    // the protocol sends stays shard-owned. The IO agent is in no
    // shard, so agent-held lines always defer.
    const std::bitset<maxDirectoryCpus> &mine =
        shardBits_[shardOf(cpu)];
    if (e.owner != invalidCpu &&
        (e.owner >= maxDirectoryCpus || !mine[e.owner]))
        return false;
    if ((e.sharers & ~mine).any())
        return false;

    // The line must be L3-resident on this chip and nowhere else.
    // Whether another chip ever cached the line only changes at
    // serial points (L3 fills and evictions are serial-path-only),
    // so this test is phase-stable: it cannot observe another
    // shard's in-phase activity, which is what makes the
    // defer/resolve decision independent of host-thread count. It
    // also guarantees the fetch is a chip-local L3 hit — no L4 or
    // fabric traffic to model.
    const unsigned chip = topo_.chipOf(cpu);
    if (e.l3Mask != std::uint64_t(1) << chip)
        return false;
    if (shardGroupsPerChip_ == 1)
        return true; // whole-chip shard: chip-confined, resolve now

    // Sub-chip shards share their chip's L3 with sibling groups, so
    // two more conditions keep the fast path race-free: the line
    // must be homed to this group (per-line hashing gives exactly
    // one group in-phase mutation rights over the directory entry),
    // and the install must not evict in-phase — an L2 eviction
    // would strip a holder that a sibling group's eligibility check
    // may concurrently read. Evicting installs are admitted anyway
    // while the CPU's overflow buffer has room: the new line parks
    // there and the eviction happens serially at the barrier drain.
    // Without the buffer this rule disables the fast path outright
    // once the L2 warms up (every install evicts).
    if (homeGroupOf(line) != groupOf(cpu))
        return false;
    const auto p = l2_[cpu].probeForInsert(line);
    if (p.hit || !p.wouldEvict)
        return true;
    const OverflowBuf &ob = l2Overflow_[cpu];
    return ob.n < l2OverflowCapacity || inL2Overflow(cpu, line);
}

DataSource
Hierarchy::shardLocalSource(CpuId cpu, Addr line) const
{
    if (l1_[cpu].contains(line))
        return DataSource::L1;
    if (l2_[cpu].contains(line))
        return DataSource::L2;
    // Eligibility confined the line to this chip: any holder
    // intervention is a same-chip transfer and the no-holder case is
    // an own-chip L3 hit — both DataSource::L3, exactly what
    // findSource() would have derived.
    return DataSource::L3;
}

void
Hierarchy::installShardLocal(CpuId cpu, Addr line)
{
    // Eligibility guarantees the line is already L3-resident on this
    // chip and, by inclusivity, L4-resident — and a real on-chip L3
    // hit never leaves the chip, so L4 recency is deliberately not
    // refreshed. The L3 LRU update is safe only for whole-chip
    // shards (sole in-phase user of the chip's array); sub-chip
    // shards share it with sibling groups and skip the update, at
    // the cost of slightly staler L3 recency under fine sharding.
    const unsigned chip = topo_.chipOf(cpu);
    if (shardGroupsPerChip_ == 1) {
        if (!l3_[chip].touch(line))
            ztx_panic("shard-local install: line 0x", std::hex, line,
                      std::dec, " not L3-resident on chip ", chip,
                      " despite residency mask");
    } else if (!l3_[chip].contains(line)) {
        ztx_panic("shard-local install: line 0x", std::hex, line,
                  std::dec, " not L3-resident on chip ", chip,
                  " despite residency mask");
    }
    const auto p2 = l2_[cpu].probeForInsert(line);
    if (p2.hit) {
        l2_[cpu].touchAt(p2);
    } else if (inL2Overflow(cpu, line)) {
        // Already pending from earlier in this quantum (the
        // line was stripped from the L1 but not the buffer, or
        // re-fetched after a demote); nothing more to do.
    } else if (shardGroupsPerChip_ > 1 && p2.wouldEvict) {
        // Sub-chip shard, evicting install: park the line in
        // the overflow buffer — eligibility guaranteed a free
        // slot — and leave the eviction (directory removal,
        // inclusivity LRU-XI) to the serial barrier drain.
        OverflowBuf &ob = l2Overflow_[cpu];
        ob.lines[ob.n++] = line;
        ++hot_[cpu].l2OverflowAdmit;
    } else {
        // Whole-chip shards evict in-phase: the eviction (and
        // its LRU-XI) stays inside the shard and is handled
        // exactly as on the serial path.
        const auto victim = l2_[cpu].insertAt(p2, line);
        if (victim.valid)
            handleL2Evict(cpu, victim.line);
    }
    const auto p1 = l1_[cpu].probeForInsert(line);
    if (p1.hit)
        l1_[cpu].touchAt(p1);
    else
        insertL1At(cpu, line, p1);
}

void
Hierarchy::installLocal(CpuId cpu, Addr line)
{
    const unsigned chip = topo_.chipOf(cpu);
    const unsigned mcm = topo_.mcmOf(cpu);

    // Each level resolves presence, the free way, and the LRU victim
    // in one probe. Probes are taken level by level because an evict
    // handler may mutate the arrays below the level it ran for.
    const auto p4 = l4_[mcm].probeForInsert(line);
    if (p4.hit) {
        l4_[mcm].touchAt(p4);
    } else {
        const auto victim = l4_[mcm].insertAt(p4, line);
        if (victim.valid)
            handleL4Evict(mcm, victim.line);
    }
    const auto p3 = l3_[chip].probeForInsert(line);
    if (p3.hit) {
        l3_[chip].touchAt(p3);
    } else {
        const auto victim = l3_[chip].insertAt(p3, line);
        if (victim.valid)
            handleL3Evict(chip, victim.line);
        if (l3MaskTracked_)
            dir_.setL3Resident(line, chip);
    }
    const auto p2 = l2_[cpu].probeForInsert(line);
    if (p2.hit) {
        l2_[cpu].touchAt(p2);
    } else {
        const auto victim = l2_[cpu].insertAt(p2, line);
        if (victim.valid)
            handleL2Evict(cpu, victim.line);
    }
    const auto p1 = l1_[cpu].probeForInsert(line);
    if (p1.hit)
        l1_[cpu].touchAt(p1);
    else
        insertL1At(cpu, line, p1);
}

void
Hierarchy::insertL1(CpuId cpu, Addr line)
{
    insertL1At(cpu, line, l1_[cpu].probeForInsert(line));
}

void
Hierarchy::insertL1At(CpuId cpu, Addr line,
                      const CacheArray::Probe &probe)
{
    const auto victim = l1_[cpu].insertAt(probe, line);
    if (!victim.valid)
        return;
    // The displaced line stays L2-resident; only the transactional
    // read footprint needs bookkeeping (paper §III.C).
    if (victim.flags & line_flag::txRead) {
        if (lruExtEnabled_) {
            lruExt_[cpu][l1_[cpu].row(victim.line)] = true;
            ++hot_[cpu].lruExtSet;
            auto &tracked = lruExtTracked_[cpu];
            if (std::find(tracked.begin(), tracked.end(),
                          victim.line) == tracked.end())
                tracked.push_back(victim.line);
        } else {
            // Ablation: without the extension the footprint promise
            // is limited to the L1; losing a tx-read line aborts.
            const XiContext ctx{XiKind::Lru, victim.line, invalidCpu,
                                true,
                                bool(victim.flags & line_flag::txDirty),
                                false,
                                poisonedCached(victim.line)};
            client(cpu)->incomingXi(ctx);
        }
    }
    client(cpu)->l1Evicted(victim.line, victim.flags);
    ++hot_[cpu].l1Evict;
}

void
Hierarchy::handleL2Evict(CpuId cpu, Addr victim)
{
    const std::uint8_t flags = l1_[cpu].flagsOf(victim);
    const bool ext_hit = lruExtensionHit(cpu, victim);
    l1_[cpu].invalidate(victim);
    dir_.remove(victim, cpu);
    ++hot_[cpu].l2Evict;
    const bool victim_poisoned = poisonedCached(victim);
    if (victim_poisoned)
        ++hot_[cpu].poisonSpreadCastout; // castout moves the image
    // Inclusivity LRU-XI down to the core; the client aborts its
    // transaction when the line is (or may be, via the imprecise
    // extension row) part of the transactional footprint.
    const XiContext ctx{XiKind::Lru, victim, invalidCpu,
                        bool(flags & line_flag::txRead),
                        bool(flags & line_flag::txDirty), ext_hit,
                        victim_poisoned};
    client(cpu)->incomingXi(ctx);
}

void
Hierarchy::handleL3Evict(unsigned chip, Addr victim)
{
    stats_.counter("l3.evict").inc();
    if (l3MaskTracked_)
        dir_.clearL3Resident(victim, chip);
    const unsigned first = chip * topo_.coresPerChip();
    for (unsigned i = 0; i < topo_.coresPerChip(); ++i) {
        const CpuId cpu = first + i;
        if (l2_[cpu].contains(victim))
            handleL2Evict(cpu, victim);
    }
}

void
Hierarchy::handleL4Evict(unsigned mcm, Addr victim)
{
    stats_.counter("l4.evict").inc();
    const unsigned first_chip = mcm * topo_.chipsPerMcm();
    for (unsigned i = 0; i < topo_.chipsPerMcm(); ++i) {
        const unsigned chip = first_chip + i;
        if (l3_[chip].invalidate(victim))
            handleL3Evict(chip, victim);
    }
}

void
Hierarchy::markTxRead(CpuId cpu, Addr line)
{
    l1_[cpu].setFlags(lineAlign(line), line_flag::txRead);
}

void
Hierarchy::markTxDirty(CpuId cpu, Addr line)
{
    l1_[cpu].setFlags(lineAlign(line), line_flag::txDirty);
}

void
Hierarchy::clearTxMarks(CpuId cpu)
{
    l1_[cpu].clearFlagsAll(line_flag::txRead | line_flag::txDirty);
    std::fill(lruExt_[cpu].begin(), lruExt_[cpu].end(), false);
    lruExtTracked_[cpu].clear();
}

void
Hierarchy::killTxDirtyLines(CpuId cpu)
{
    std::vector<Addr> doomed;
    l1_[cpu].forEachValid([&](const CacheArray::Entry &e) {
        if (e.flags & line_flag::txDirty)
            doomed.push_back(e.line);
    });
    for (const Addr line : doomed)
        l1_[cpu].invalidate(line);
    hot_[cpu].txDirtyKilled += doomed.size();
}

bool
Hierarchy::txRead(CpuId cpu, Addr line) const
{
    return l1_[cpu].flagsOf(lineAlign(line)) & line_flag::txRead;
}

bool
Hierarchy::txDirty(CpuId cpu, Addr line) const
{
    return l1_[cpu].flagsOf(lineAlign(line)) & line_flag::txDirty;
}

bool
Hierarchy::lruExtensionHit(CpuId cpu, Addr line) const
{
    if (!lruExtEnabled_)
        return false;
    return lruExt_[cpu][l1_[cpu].row(lineAlign(line))];
}

bool
Hierarchy::lruExtensionAny(CpuId cpu) const
{
    for (const bool b : lruExt_[cpu])
        if (b)
            return true;
    return false;
}

void
Hierarchy::setLruExtensionEnabled(bool enabled)
{
    lruExtEnabled_ = enabled;
}

bool
Hierarchy::inL1(CpuId cpu, Addr line) const
{
    return l1_[cpu].contains(lineAlign(line));
}

bool
Hierarchy::inL2(CpuId cpu, Addr line) const
{
    return l2_[cpu].contains(lineAlign(line));
}

bool
Hierarchy::inL3(unsigned chip, Addr line) const
{
    return l3_[chip].contains(lineAlign(line));
}

bool
Hierarchy::inL4(unsigned mcm, Addr line) const
{
    return l4_[mcm].contains(lineAlign(line));
}

void
Hierarchy::flushCpuCaches(CpuId cpu)
{
    l1_[cpu].forEachValid([&](const CacheArray::Entry &e) {
        if (e.flags & (line_flag::txRead | line_flag::txDirty))
            ztx_panic("flushCpuCaches with transactional marks set");
    });
    std::vector<Addr> lines;
    l2_[cpu].forEachValid([&](const CacheArray::Entry &e) {
        lines.push_back(e.line);
    });
    for (const Addr line : lines) {
        l1_[cpu].invalidate(line);
        l2_[cpu].invalidate(line);
        dir_.remove(line, cpu);
    }
    // Pending overflow installs are flushed like resident lines.
    OverflowBuf &ob = l2Overflow_[cpu];
    for (unsigned i = 0; i < ob.n; ++i) {
        l1_[cpu].invalidate(ob.lines[i]);
        dir_.remove(ob.lines[i], cpu);
    }
    ob.n = 0;
    std::fill(lruExt_[cpu].begin(), lruExt_[cpu].end(), false);
    lruExtTracked_[cpu].clear();
}

std::vector<Addr>
Hierarchy::txFootprintLines(CpuId cpu) const
{
    std::vector<Addr> lines;
    l1_[cpu].forEachValid([&](const CacheArray::Entry &e) {
        if (e.flags &
            (line_flag::txRead | line_flag::txDirty))
            lines.push_back(e.line);
    });
    // Evicted-but-tracked lines: displaced from the L1 while an
    // LRU-extension row preserved their tx-read promise. A line may
    // have been refetched (and remarked) since its eviction; skip
    // those to avoid duplicates.
    for (const Addr line : lruExtTracked_[cpu])
        if (!(l1_[cpu].flagsOf(line) &
              (line_flag::txRead | line_flag::txDirty)))
            lines.push_back(line);
    return lines;
}

bool
Hierarchy::injectAdversarialXi(CpuId target, Addr line)
{
    const DirectoryEntry e = dir_.lookup(line);
    if (e.owner == target) {
        // Rejectable: an owner defending its footprint stiff-arms
        // exactly as it would against a real remote claimant.
        if (sendXi(XiKind::Exclusive, line, target, invalidCpu) ==
            XiResponse::Reject)
            return false;
    } else if (dir_.holds(target, line)) {
        // A shared copy cannot be defended (ReadOnly XIs are not
        // rejectable): a tx-read hit aborts the transaction.
        sendXi(XiKind::ReadOnly, line, target, invalidCpu);
    } else {
        return false; // raced away (e.g. aborted out) — no-op
    }
    removeFromCpu(target, line);
    return true;
}

void
Hierarchy::squeezeCapacity(CpuId cpu, unsigned l1_ways,
                           unsigned l2_ways)
{
    l1_[cpu].setEffectiveAssoc(l1_ways);
    l2_[cpu].setEffectiveAssoc(l2_ways);
}

void
Hierarchy::poisonLine(Addr line, bool memory_side)
{
    line = lineAlign(line);
    std::uint8_t &bits = poison_[line];
    bits |= poisonCached;
    if (memory_side)
        bits |= poisonMemorySide;
    poisonActive_ = true;
    stats_.counter("poison.injected").inc();
    // Best-effort flag mirror on the L1s of current holders, so
    // XiContext and introspection see the poison without a map walk.
    const DirectoryEntry e = dir_.lookup(line);
    for (unsigned h = 0; h < topo_.numCpus(); ++h)
        if ((e.owner == CpuId(h) ||
             (h < maxDirectoryCpus && e.sharers[h])) &&
            l1_[h].contains(line))
            l1_[h].setFlags(line, line_flag::poison);
}

bool
Hierarchy::scrubLine(Addr line)
{
    line = lineAlign(line);
    const auto it = poison_.find(line);
    if (it == poison_.end())
        return true; // raced away (already scrubbed) — vacuous
    if (it->second & poisonMemorySide)
        return false; // no clean copy exists anywhere
    poison_.erase(it);
    for (auto &l1 : l1_)
        l1.clearFlags(line, line_flag::poison);
    stats_.counter("poison.scrubbed").inc();
    poisonActive_ = !poison_.empty();
    return true;
}

void
Hierarchy::reloadLine(Addr line)
{
    line = lineAlign(line);
    if (poison_.erase(line)) {
        stats_.counter("poison.reloaded").inc();
        for (auto &l1 : l1_)
            l1.clearFlags(line, line_flag::poison);
    }
    poisonActive_ = !poison_.empty();
}

bool
Hierarchy::inTxFootprint(CpuId cpu, Addr line) const
{
    line = lineAlign(line);
    if (l1_[cpu].flagsOf(line) &
        (line_flag::txRead | line_flag::txDirty))
        return true;
    const auto &tracked = lruExtTracked_[cpu];
    return std::find(tracked.begin(), tracked.end(), line) !=
           tracked.end();
}

void
Hierarchy::foldHotCounters() const
{
    HotCounters sum;
    for (const HotCounters &h : hot_) {
        sum.fetchTotal += h.fetchTotal;
        sum.l1Hit += h.l1Hit;
        sum.l2Hit += h.l2Hit;
        sum.l1Evict += h.l1Evict;
        sum.lruExtSet += h.lruExtSet;
        sum.txDirtyKilled += h.txDirtyKilled;
        sum.fetchMiss += h.fetchMiss;
        sum.l2Evict += h.l2Evict;
        sum.l2OverflowAdmit += h.l2OverflowAdmit;
        sum.xiReadOnly += h.xiReadOnly;
        sum.xiDemote += h.xiDemote;
        sum.xiExclusive += h.xiExclusive;
        sum.xiLru += h.xiLru;
        sum.xiRejected += h.xiRejected;
        sum.xiDelayed += h.xiDelayed;
        sum.poisonSpreadFetch += h.poisonSpreadFetch;
        sum.poisonSpreadCastout += h.poisonSpreadCastout;
        sum.poisonSpreadXi += h.poisonSpreadXi;
    }
    // Touch every counter unconditionally so the set of registered
    // stats (and hence the JSON shape) never depends on which paths
    // happened to run.
    stats_.counter("fetch.total").inc(sum.fetchTotal -
                                      hotFolded_.fetchTotal);
    stats_.counter("fetch.l1_hit").inc(sum.l1Hit - hotFolded_.l1Hit);
    stats_.counter("fetch.l2_hit").inc(sum.l2Hit - hotFolded_.l2Hit);
    stats_.counter("fetch.miss").inc(sum.fetchMiss -
                                     hotFolded_.fetchMiss);
    stats_.counter("l1.evict").inc(sum.l1Evict - hotFolded_.l1Evict);
    stats_.counter("l1.lru_ext_set").inc(sum.lruExtSet -
                                         hotFolded_.lruExtSet);
    stats_.counter("l1.tx_dirty_killed")
        .inc(sum.txDirtyKilled - hotFolded_.txDirtyKilled);
    stats_.counter("l2.evict").inc(sum.l2Evict - hotFolded_.l2Evict);
    stats_.counter("l2.overflow_admit")
        .inc(sum.l2OverflowAdmit - hotFolded_.l2OverflowAdmit);
    stats_.counter("xi.read-only").inc(sum.xiReadOnly -
                                       hotFolded_.xiReadOnly);
    stats_.counter("xi.demote").inc(sum.xiDemote -
                                    hotFolded_.xiDemote);
    stats_.counter("xi.exclusive").inc(sum.xiExclusive -
                                       hotFolded_.xiExclusive);
    stats_.counter("xi.lru").inc(sum.xiLru - hotFolded_.xiLru);
    stats_.counter("xi.rejected").inc(sum.xiRejected -
                                      hotFolded_.xiRejected);
    stats_.counter("xi.delayed").inc(sum.xiDelayed -
                                     hotFolded_.xiDelayed);
    stats_.counter("poison.spread_fetch")
        .inc(sum.poisonSpreadFetch - hotFolded_.poisonSpreadFetch);
    stats_.counter("poison.spread_castout")
        .inc(sum.poisonSpreadCastout -
             hotFolded_.poisonSpreadCastout);
    stats_.counter("poison.spread_xi")
        .inc(sum.poisonSpreadXi - hotFolded_.poisonSpreadXi);
    hotFolded_ = sum;
}

std::string
Hierarchy::indexCheck() const
{
    const auto check = [](const CacheArray &arr) {
        return arr.indexCheck();
    };
    for (const CacheArray &arr : l1_)
        if (std::string err = check(arr); !err.empty())
            return err;
    for (const CacheArray &arr : l2_)
        if (std::string err = check(arr); !err.empty())
            return err;
    for (const CacheArray &arr : l3_)
        if (std::string err = check(arr); !err.empty())
            return err;
    for (const CacheArray &arr : l4_)
        if (std::string err = check(arr); !err.empty())
            return err;
    return "";
}

void
Hierarchy::checkInvariants() const
{
    for (unsigned cpu = 0; cpu < topo_.numCpus(); ++cpu) {
        // L1 subset of L2 (counting pending overflow installs);
        // L2 subset of L3 and L4; holders match the directory.
        l1_[cpu].forEachValid([&](const CacheArray::Entry &e) {
            if (!l2_[cpu].contains(e.line) &&
                !inL2Overflow(cpu, e.line))
                ztx_panic("L1 line not in L2 (cpu ", cpu, ")");
        });
        l2_[cpu].forEachValid([&](const CacheArray::Entry &e) {
            if (!l3_[topo_.chipOf(cpu)].contains(e.line))
                ztx_panic("L2 line not in L3 (cpu ", cpu, ")");
            if (!l4_[topo_.mcmOf(cpu)].contains(e.line))
                ztx_panic("L2 line not in L4 (cpu ", cpu, ")");
            if (!dir_.holds(cpu, e.line))
                ztx_panic("L2 line not in directory (cpu ", cpu, ")");
        });
        // Buffered lines obey the same inclusivity and directory
        // rules as array-resident ones (eligibility pinned them to
        // the own chip's L3 and the fetch registered the holder).
        const OverflowBuf &ob = l2Overflow_[cpu];
        for (unsigned i = 0; i < ob.n; ++i) {
            const Addr line = ob.lines[i];
            if (!l3_[topo_.chipOf(cpu)].contains(line))
                ztx_panic("overflow line not in L3 (cpu ", cpu, ")");
            if (!l4_[topo_.mcmOf(cpu)].contains(line))
                ztx_panic("overflow line not in L4 (cpu ", cpu, ")");
            if (!dir_.holds(cpu, line))
                ztx_panic("overflow line not in directory (cpu ",
                          cpu, ")");
        }
    }
    if (!l3MaskTracked_)
        return;
    // The L3-residency mask must agree with the actual arrays in
    // both directions: every resident line has its chip bit set, and
    // every set bit corresponds to a resident line. The fast path's
    // eligibility test stands on this.
    for (unsigned chip = 0; chip < topo_.numChips(); ++chip) {
        l3_[chip].forEachValid([&](const CacheArray::Entry &e) {
            if (!(dir_.lookup(e.line).l3Mask &
                  (std::uint64_t(1) << chip)))
                ztx_panic("L3-resident line missing its residency "
                          "mask bit (chip ", chip, ")");
        });
    }
    dir_.forEachEntry([&](Addr line, const DirectoryEntry &e) {
        for (std::uint64_t mask = e.l3Mask; mask;
             mask &= mask - 1) {
            const unsigned chip =
                unsigned(std::countr_zero(mask));
            if (!l3_[chip].contains(line))
                ztx_panic("residency mask bit set for a line not "
                          "in chip ", chip, "'s L3");
        }
    });
}

} // namespace ztx::mem
