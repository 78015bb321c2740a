#include "op_log.hh"

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
    if (pc.ring.size() >= capacity_) {
        pc.ring.pop_front();
        ++pc.dropped;
    }
    OpRecord rec;
    rec.code = code;
    rec.a0 = a0;
    rec.a1 = a1;
    rec.invoke = now;
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
    for (std::size_t i = 0; i < n; ++i) {
        std::uint64_t &ver = lineVersions_[acc[i].line];
        if (acc[i].write)
            ++ver;
        rec.accesses.push_back({acc[i].line, ver, acc[i].write});
    }
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
            n += rec.accesses.size();
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
            op.accesses = rec.accesses;
            decode(rec, op);
            ops.push_back(op);
        }
    }
    return ops;
}

} // namespace ztx::workload
