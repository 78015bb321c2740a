#include "io_subsystem.hh"

#include <algorithm>

#include "common/log.hh"
#include "common/trace.hh"

namespace ztx::sim {

IoSubsystem::IoSubsystem(mem::Hierarchy &hier,
                         mem::MainMemory &memory, CpuId agent_id)
    : hier_(hier), memory_(memory), agentId_(agent_id)
{
    hier_.setClient(agentId_, this);
}

void
IoSubsystem::submit(const IoRequest &request)
{
    if (request.length == 0)
        ztx_fatal("zero-length I/O request");
    queue_.push_back(request);
    requests_.inc();
}

bool
IoSubsystem::idle() const
{
    return queue_.empty();
}

Cycles
IoSubsystem::pump()
{
    if (queue_.empty())
        return 0;

    IoRequest &req = queue_.front();
    const Addr addr = req.addr + progress_;
    const Addr line = lineAlign(addr);
    const std::uint64_t in_line = std::min<std::uint64_t>(
        req.length - progress_, line + lineSizeBytes - addr);

    const mem::AccessResult res =
        hier_.fetch(agentId_, line, req.write);
    if (res.rejected) {
        // A transactional owner stiff-armed the channel; the channel
        // repeats the request, and the owner's hang-avoidance or
        // completion eventually lets it through.
        rejected_.inc();
        return res.latency;
    }
    lines_.inc();

    if (req.write) {
        for (std::uint64_t i = 0; i < in_line; ++i)
            memory_.writeByte(addr + i, req.pattern);
    }
    // Reads are functional no-ops beyond the coherence traffic: the
    // data is observed from MainMemory (pre-commit transactional
    // stores are invisible there by construction, and the demote XI
    // this fetch sent guarantees no stale exclusive copy).

    progress_ += in_line;
    if (progress_ >= req.length) {
        ztx_trace(trace::Category::Io, (req.write ? "DMA write"
                                                  : "DMA read"),
                  " done addr=0x", std::hex, req.addr, std::dec,
                  " len=", req.length);
        queue_.pop_front();
        progress_ = 0;
        completed_.inc();
    }
    return res.latency;
}

std::uint64_t
IoSubsystem::deviceRead(Addr addr, unsigned size) const
{
    return memory_.read(addr, size);
}

mem::XiResponse
IoSubsystem::incomingXi(const mem::XiContext &ctx)
{
    // The channel subsystem holds no transactional state and always
    // yields its lines.
    (void)ctx;
    return mem::XiResponse::Accept;
}

void
IoSubsystem::l1Evicted(Addr line, std::uint8_t flags)
{
    (void)line;
    (void)flags;
}

} // namespace ztx::sim
