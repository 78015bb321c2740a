#include "op_log.hh"

#include <algorithm>

namespace ztx::workload {

OpLog::OpLog(unsigned cpus, std::size_t capacity)
    : capacity_(capacity ? capacity : 1), cpus_(cpus)
{
}

void
OpLog::opInvoke(CpuId cpu, Cycles now, std::uint32_t code,
                std::uint64_t a0, std::uint64_t a1)
{
    PerCpu &pc = cpus_.at(cpu);
    if (!pc.ring.empty() && !pc.ring.back().completed) {
        // Two invokes without a response: the program lost an
        // OPLOGE. Keep the older record pending (maybe completed).
        ++pc.protocolErrors;
    }
    if (pc.ring.size() >= capacity_)
        dropOldest(pc);
    OpRecord rec;
    rec.code = code;
    rec.a0 = a0;
    rec.a1 = a1;
    rec.invoke = now;
    // The records will follow in the last chunk (or a later one).
    if (!pc.arena.empty()) {
        rec.accessChunk =
            pc.chunkBase + std::uint32_t(pc.arena.size() - 1);
        rec.firstAccess = std::uint32_t(pc.arena.back().size());
    } else {
        rec.accessChunk = pc.chunkBase;
    }
    pc.ring.push_back(rec);
}

void
OpLog::opResponse(CpuId cpu, Cycles now, std::uint64_t result)
{
    PerCpu &pc = cpus_.at(cpu);
    if (pc.ring.empty() || pc.ring.back().completed) {
        ++pc.protocolErrors; // response without a pending invoke
        return;
    }
    OpRecord &rec = pc.ring.back();
    rec.response = now;
    rec.result = result;
    rec.completed = true;
}

void
OpLog::opCommit(CpuId cpu, Cycles now,
                const core::FootprintAccess *acc, std::size_t n)
{
    (void)now; // versions order commits; the cycle is implicit
    PerCpu &pc = cpus_.at(cpu);
    if (pc.ring.empty() || pc.ring.back().completed) {
        ++pc.protocolErrors; // commit outside an op bracket
        return;
    }
    OpRecord &rec = pc.ring.back();
    if (pc.arena.empty() ||
        pc.arena.back().size() + n > pc.arena.back().capacity()) {
        // A new chunk; records of an earlier commit of this op move
        // along so that the op's records stay contiguous.
        std::vector<inject::VersionAccess> next;
        next.reserve(std::max<std::size_t>(arenaChunk,
                                           rec.numAccesses + n));
        if (rec.numAccesses) {
            std::vector<inject::VersionAccess> &last = pc.arena.back();
            next.assign(last.end() - rec.numAccesses, last.end());
            last.resize(last.size() - rec.numAccesses);
        }
        pc.arena.push_back(std::move(next));
        rec.accessChunk =
            pc.chunkBase + std::uint32_t(pc.arena.size() - 1);
        rec.firstAccess = 0;
    }
    std::vector<inject::VersionAccess> &chunk = pc.arena.back();
    for (std::size_t i = 0; i < n; ++i) {
        std::uint64_t &ver = lineVersions_[acc[i].line];
        if (acc[i].write)
            ++ver;
        chunk.emplace_back(acc[i].line, ver, acc[i].write);
    }
    rec.numAccesses += std::uint32_t(n);
}

void
OpLog::dropOldest(PerCpu &pc)
{
    pc.ring.pop_front();
    ++pc.dropped;
    // Free the chunks before the oldest live record's; the last
    // chunk stays, the next records go there.
    const std::uint32_t live =
        pc.ring.empty() ? pc.chunkBase + std::uint32_t(pc.arena.size())
                        : pc.ring.front().accessChunk;
    while (pc.arena.size() > 1 && pc.chunkBase < live) {
        pc.arena.pop_front();
        ++pc.chunkBase;
    }
}

inject::VersionSpan
OpLog::accesses(CpuId cpu, const OpRecord &rec) const
{
    if (rec.numAccesses == 0)
        return {};
    const PerCpu &pc = cpus_.at(cpu);
    return {pc.arena[rec.accessChunk - pc.chunkBase].data() +
                rec.firstAccess,
            rec.numAccesses};
}

Json
OpLog::pendingOpJson(CpuId cpu) const
{
    const PerCpu &pc = cpus_.at(cpu);
    if (pc.ring.empty() || pc.ring.back().completed)
        return Json();
    const OpRecord &rec = pc.ring.back();
    Json d = Json::object();
    d["code"] = rec.code;
    d["arg0"] = rec.a0;
    d["arg1"] = rec.a1;
    d["invoke_cycle"] = std::uint64_t(rec.invoke);
    d["completed_ops"] = std::uint64_t(pc.ring.size() - 1);
    return d;
}

std::uint64_t
OpLog::protocolErrors() const
{
    std::uint64_t n = 0;
    for (const auto &pc : cpus_)
        n += pc.protocolErrors;
    return n;
}

bool
OpLog::truncated() const
{
    for (const auto &pc : cpus_)
        if (pc.dropped)
            return true;
    return false;
}

std::size_t
OpLog::totalOps() const
{
    std::size_t n = 0;
    for (const auto &pc : cpus_)
        n += pc.ring.size();
    return n;
}

std::uint64_t
OpLog::versionRecords() const
{
    std::uint64_t n = 0;
    for (const auto &pc : cpus_)
        for (const OpRecord &rec : pc.ring)
            n += rec.numAccesses;
    return n;
}

std::vector<inject::LinOp>
OpLog::history(const std::function<void(const OpRecord &,
                                        inject::LinOp &)> &decode)
    const
{
    std::vector<inject::LinOp> ops;
    ops.reserve(totalOps());
    for (CpuId cpu = 0; cpu < cpus_.size(); ++cpu) {
        std::uint32_t seq = 0;
        for (const OpRecord &rec : cpus_[cpu].ring) {
            inject::LinOp op;
            op.invoke = rec.invoke;
            op.response = rec.response;
            op.pending = !rec.completed;
            op.cpu = cpu;
            op.seq = seq++;
            op.accesses = accesses(cpu, rec);
            decode(rec, op);
            ops.push_back(op);
        }
    }
    return ops;
}

} // namespace ztx::workload
