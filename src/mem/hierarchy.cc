#include "hierarchy.hh"

#include <algorithm>
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
                     const HierarchyGeometry &geo, unsigned cpus)
    : topo_(topo), lat_(lat), geo_(geo)
{
    const unsigned slots = topo_.numCpus();
    if (slots == 0)
        ztx_fatal("topology has zero CPUs");
    if (slots > maxDirectoryCpus)
        ztx_fatal("topology has ", slots, " CPUs; directory supports ",
                  maxDirectoryCpus);
    const unsigned n = cpus == 0 ? slots : cpus;
    if (n > slots)
        ztx_fatal("hierarchy of ", n, " CPUs exceeds topology capacity ",
                  slots);
    // Size the directory's per-line sharer words to this machine
    // instead of the compile-time worst case.
    dir_.configure(slots);
    l1_.reserve(n);
    l2_.reserve(n);
    lruExt_.reserve(n);
    for (unsigned i = 0; i < n; ++i) {
        l1_.emplace_back(geo_.l1, "l1." + std::to_string(i));
        l2_.emplace_back(geo_.l2, "l2." + std::to_string(i));
        lruExt_.emplace_back(geo_.l1.rows(), false);
    }
    lruExtTracked_.resize(n);
    near_.reserve(n);
    for (unsigned i = 0; i < n; ++i) {
        // chipOf/mcmOf divide the CPU number, so a chip's and an
        // MCM's CPUs are contiguous ranges.
        const CpuId chip_lo = topo_.chipOf(i) * topo_.coresPerChip();
        const CpuId mcm_lo = topo_.mcmOf(i) * topo_.chipsPerMcm() *
                             topo_.coresPerChip();
        near_.push_back({chip_lo, chip_lo + topo_.coresPerChip(),
                         mcm_lo,
                         mcm_lo + topo_.chipsPerMcm() *
                                      topo_.coresPerChip()});
    }
    // The built CPUs are a prefix of the slots, so the chips and
    // MCMs holding one of them are prefixes too. Every other L3/L4
    // would stay empty: a line is installed only in the requester's
    // own L1-L4.
    const unsigned chips = topo_.chipOf(n - 1) + 1;
    const unsigned mcms = topo_.mcmOf(n - 1) + 1;
    l3_.reserve(chips);
    for (unsigned c = 0; c < chips; ++c)
        l3_.emplace_back(geo_.l3, "l3." + std::to_string(c));
    l4_.reserve(mcms);
    for (unsigned m = 0; m < mcms; ++m)
        l4_.emplace_back(geo_.l4, "l4." + std::to_string(m));
    clients_.resize(n, nullptr);
}

void
Hierarchy::checkBuilt(CpuId cpu, const char *what) const
{
    if (cpu >= builtCpus())
        ztx_panic(what, ": cpu ", cpu, " has no caches (", builtCpus(),
                  " CPUs built)");
}

void
Hierarchy::setClient(CpuId cpu, CacheClient *client)
{
    checkBuilt(cpu, "setClient");
    clients_[cpu] = client;
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
Hierarchy::localHit(CpuId cpu, Addr line, const CacheArray::Probe &p1)
{
    AccessResult res;
    if (p1.hit) {
        l1_[cpu].touchAt(p1);
        res.source = DataSource::L1;
        res.latency = lat_.l1Hit;
        res.l1Slot = p1.idx;
        l1Hit_.inc();
        return res;
    }
    // Inclusivity: a held line must be L2-resident.
    const auto p2 = l2_[cpu].probeForInsert(line);
    if (!p2.hit)
        ztx_panic("directory says cpu ", cpu, " holds line but L2 miss");
    l2_[cpu].touchAt(p2);
    res.l1Slot = insertL1At(cpu, line, p1);
    res.source = DataSource::L2;
    res.latency = lat_.l2Hit;
    l2Hit_.inc();
    return res;
}

Distance
Hierarchy::distance(CpuId cpu, CpuId other) const
{
    const Neighbourhood &near = near_[cpu];
    if (other == cpu)
        return Distance::SameCpu;
    if (other >= near.chipLo && other < near.chipHi)
        return Distance::SameChip;
    if (other >= near.mcmLo && other < near.mcmHi)
        return Distance::SameMcm;
    return Distance::CrossMcm;
}

DataSource
Hierarchy::findSource(CpuId cpu, Addr line,
                      CoherenceDirectory::Slot slot) const
{
    // Inclusivity: a line the requester holds is in its L2, and one
    // it does not hold is in neither its L2 nor its L1.
    if (dir_.holdsAt(slot, cpu))
        return l1_[cpu].contains(line) ? DataSource::L1 : DataSource::L2;

    // Nearest other holder supplies the line (cache intervention):
    // look in the requester's chip, then its MCM, then everywhere.
    const Neighbourhood &near = near_[cpu];
    if (dir_.anyHolderIn(slot, near.chipLo, near.chipHi, cpu))
        return DataSource::L3;
    if (dir_.anyHolderIn(slot, near.mcmLo, near.mcmHi, cpu))
        return DataSource::L4;
    if (dir_.anyHolderIn(slot, 0, CpuId(topo_.numCpus()), cpu))
        return DataSource::RemoteMcm;

    if (l3_[topo_.chipOf(cpu)].contains(line))
        return DataSource::L3;
    if (l4_[topo_.mcmOf(cpu)].contains(line))
        return DataSource::L4;
    for (unsigned m = 0; m < l4_.size(); ++m)
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
    switch (kind) {
      case XiKind::ReadOnly: xiReadOnly_.inc(); break;
      case XiKind::Demote: xiDemote_.inc(); break;
      case XiKind::Exclusive: xiExclusive_.inc(); break;
      case XiKind::Lru: xiLru_.inc(); break;
    }
    ztx_trace(trace::Category::Xi, xiKindName(kind), " XI to cpu",
              target, " line=0x", std::hex, line, std::dec,
              " from cpu", requester);
    const XiResponse resp = client(target)->incomingXi(ctx);
    if (resp == XiResponse::Reject) {
        if (kind != XiKind::Demote && kind != XiKind::Exclusive)
            ztx_panic("client rejected a non-rejectable ",
                      xiKindName(kind), " XI");
        xiRejected_.inc();
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
        xiDelayed_.inc();
    return delay;
}

void
Hierarchy::removeFromCpu(CpuId cpu, Addr line)
{
    l1_[cpu].invalidate(line);
    l2_[cpu].invalidate(line);
    dir_.remove(line, cpu);
}

AccessResult
Hierarchy::fetch(CpuId cpu, Addr line, bool exclusive)
{
    if (lineOffset(line) != 0)
        ztx_panic("fetch of non-line-aligned address");

    fetchTotal_.inc();
    // A read's L1 probe comes first: on a hit it is the whole fetch.
    CacheArray::Probe p1;
    if (!exclusive) {
        p1 = l1_[cpu].probeForInsert(line);
        if (p1.hit)
            return localHit(cpu, line, p1);
    }
    const CoherenceDirectory::Slot slot = dir_.find(line);
    const CpuId owner = dir_.ownerAt(slot);
    if (dir_.holdsAt(slot, cpu) && (!exclusive || owner == cpu))
        return localHit(cpu, line,
                        exclusive ? l1_[cpu].probeForInsert(line) : p1);

    AccessResult res;
    res.source = findSource(cpu, line, slot);
    // Whether another CPU held the line before the fill (poison
    // propagation only); read now, before any state moves.
    const bool other_holder =
        poisonActive_ &&
        dir_.anyHolderIn(slot, 0, CpuId(topo_.numCpus()), cpu);

    Cycles xi_cost = 0;
    if (owner != invalidCpu && owner != cpu) {
        // Another CPU owns the line exclusively.
        const XiKind kind =
            exclusive ? XiKind::Exclusive : XiKind::Demote;
        const Distance d = distance(cpu, owner);
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
        dir_.forEachHolderExcept(line, cpu, [&](CpuId s) {
            const Cycles delay =
                probeDelay(XiKind::ReadOnly, s, cpu);
            sendXi(XiKind::ReadOnly, line, s, cpu);
            removeFromCpu(s, line);
            xi_cost = std::max(
                xi_cost,
                lat_.intervention(distance(cpu, s)) + delay);
        });
    }

    if (exclusive)
        dir_.setExclusive(line, cpu);
    else
        dir_.addSharer(line, cpu);

    res.l1Slot = installLocal(cpu, line);
    if (poisonActive_)
        propagatePoisonOnFill(line, other_holder, res.source);
    res.latency = std::max(lat_.fetch(res.source), xi_cost);
    fetchMiss_.inc();
    return res;
}

void
Hierarchy::replayL1Hits(CpuId cpu, std::uint64_t hits, const Addr *tail,
                        std::size_t tail_len)
{
    fetchTotal_.inc(hits);
    l1Hit_.inc(hits);
    l1_[cpu].replayTouches(hits, tail, tail_len);
}

void
Hierarchy::propagatePoisonOnFill(Addr line, bool other_holder,
                                 DataSource source)
{
    const auto it = poison_.find(line);
    if (it == poison_.end())
        return;
    if (it->second & poisonCached) {
        // A corrupt cached image supplied the fill: holder
        // intervention carries poison over the XI data transfer,
        // a shared-cache hit carries it on the fetch itself.
        if (other_holder)
            poisonSpreadXi_.inc();
        else
            poisonSpreadFetch_.inc();
    } else if ((it->second & poisonMemorySide) &&
               source == DataSource::Memory) {
        // The corrupt home image enters the cache hierarchy.
        it->second |= poisonCached;
        poisonSpreadFetch_.inc();
    }
}

std::size_t
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
    if (!p1.hit)
        return insertL1At(cpu, line, p1);
    l1_[cpu].touchAt(p1);
    return p1.idx;
}

std::size_t
Hierarchy::insertL1At(CpuId cpu, Addr line,
                      const CacheArray::Probe &probe)
{
    const auto victim = l1_[cpu].insertAt(probe, line);
    if (!victim.valid)
        return victim.slot;
    // The displaced line stays L2-resident; only the transactional
    // read footprint needs bookkeeping (paper §III.C).
    if (victim.flags & line_flag::txRead) {
        if (lruExtEnabled_) {
            lruExt_[cpu][l1_[cpu].row(victim.line)] = true;
            lruExtSet_.inc();
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
    l1Evict_.inc();
    return victim.slot;
}

void
Hierarchy::handleL2Evict(CpuId cpu, Addr victim)
{
    const std::uint8_t flags = l1_[cpu].flagsOf(victim);
    const bool ext_hit = lruExtensionHit(cpu, victim);
    l1_[cpu].invalidate(victim);
    dir_.remove(victim, cpu);
    l2Evict_.inc();
    const bool victim_poisoned = poisonedCached(victim);
    if (victim_poisoned)
        poisonSpreadCastout_.inc(); // castout moves the image
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
    l3Evict_.inc();
    // The chip's CPUs that were built; the last built chip may
    // hold fewer than coresPerChip.
    const unsigned first = chip * topo_.coresPerChip();
    const unsigned last =
        std::min(first + topo_.coresPerChip(), builtCpus());
    for (CpuId cpu = first; cpu < last; ++cpu)
        if (l2_[cpu].invalidate(victim))
            handleL2Evict(cpu, victim);
}

void
Hierarchy::handleL4Evict(unsigned mcm, Addr victim)
{
    l4Evict_.inc();
    const unsigned first_chip = mcm * topo_.chipsPerMcm();
    const unsigned last_chip = std::min(
        first_chip + topo_.chipsPerMcm(), unsigned(l3_.size()));
    for (unsigned chip = first_chip; chip < last_chip; ++chip)
        if (l3_[chip].invalidate(victim))
            handleL3Evict(chip, victim);
}

void
Hierarchy::markTxRead(CpuId cpu, Addr line, std::size_t l1_slot)
{
    if (!l1_[cpu].setFlagsAt(l1_slot, lineAlign(line),
                             line_flag::txRead))
        ztx_panic("tx-read mark on a line absent from l1.", cpu);
}

bool
Hierarchy::markTxDirty(CpuId cpu, Addr line, std::size_t l1_slot)
{
    return l1_[cpu].setFlagsAt(l1_slot, lineAlign(line),
                               line_flag::txDirty);
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
    txDirtyKilled_.inc(doomed.size());
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
    checkBuilt(cpu, "inL1");
    return l1_[cpu].contains(lineAlign(line));
}

bool
Hierarchy::inL2(CpuId cpu, Addr line) const
{
    checkBuilt(cpu, "inL2");
    return l2_[cpu].contains(lineAlign(line));
}

bool
Hierarchy::inL3(unsigned chip, Addr line) const
{
    return chip < l3_.size() && l3_[chip].contains(lineAlign(line));
}

bool
Hierarchy::inL4(unsigned mcm, Addr line) const
{
    return mcm < l4_.size() && l4_[mcm].contains(lineAlign(line));
}

void
Hierarchy::flushCpuCaches(CpuId cpu)
{
    checkBuilt(cpu, "flushCpuCaches");
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
    if (dir_.owner(line) == target) {
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
    checkBuilt(cpu, "squeezeCapacity");
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
    poisonInjected_.inc();
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
    poisonScrubbed_.inc();
    poisonActive_ = !poison_.empty();
    return true;
}

void
Hierarchy::reloadLine(Addr line)
{
    line = lineAlign(line);
    if (poison_.erase(line))
        poisonReloaded_.inc();
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
    // Inclusion as fetch() relies on it: an L1 read hit skips the
    // directory.
    std::string err;
    for (CpuId cpu = 0; cpu < builtCpus() && err.empty(); ++cpu) {
        l1_[cpu].forEachValid([&](const CacheArray::Entry &e) {
            if (!err.empty())
                return;
            if (!l2_[cpu].contains(e.line))
                err = l1_[cpu].name() + ": valid line not in the L2";
            else if (!dir_.holds(cpu, e.line))
                err = l1_[cpu].name() +
                      ": valid line not held in the directory";
        });
    }
    return err;
}

void
Hierarchy::checkInvariants() const
{
    for (CpuId cpu = 0; cpu < builtCpus(); ++cpu) {
        // L1 subset of L2; L2 subset of L3 and L4; holders match
        // the directory.
        l1_[cpu].forEachValid([&](const CacheArray::Entry &e) {
            if (!l2_[cpu].contains(e.line))
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
    }
    // An owned line's sharer words hold exactly the owner's bit:
    // findSource's range queries count the owner through it.
    if (const std::string err = dir_.ownershipCheck(); !err.empty())
        ztx_panic(err);
}

} // namespace ztx::mem
