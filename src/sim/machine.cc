#include "machine.hh"

#include <algorithm>
#include <functional>
#include <utility>

#include "common/log.hh"
#include "inject/steer.hh"

namespace ztx::sim {

namespace {

/** The CPUs @p cfg runs; fatal when its topology cannot hold them. */
unsigned
checkedActiveCpus(const MachineConfig &cfg)
{
    const unsigned slots = cfg.topology.numCpus();
    const unsigned n = cfg.activeCpus == 0 ? slots : cfg.activeCpus;
    if (n > slots)
        ztx_fatal("activeCpus ", n, " exceeds topology capacity ",
                  slots);
    return n;
}

/**
 * The CPUs whose caches the hierarchy builds: the running ones, or
 * every slot when the channel agent takes the last one.
 */
unsigned
cachedCpus(const MachineConfig &cfg)
{
    const unsigned n = checkedActiveCpus(cfg);
    return cfg.enableIo ? cfg.topology.numCpus() : n;
}

} // namespace

Machine::Machine(const MachineConfig &config)
    : cfg_(config),
      hierarchy_(config.topology, config.latency, config.geometry,
                 cachedCpus(config)),
      os_(pageTable_)
{
    const unsigned n = checkedActiveCpus(cfg_);
    cpus_.reserve(n);
    for (unsigned i = 0; i < n; ++i)
        cpus_.push_back(std::make_unique<core::Cpu>(
            i, hierarchy_, memory_, pageTable_, os_, *this, cfg_.tm,
            cfg_.seed * 0x9e3779b97f4a7c15ULL + i + 1));
    if (cfg_.enableIo) {
        const CpuId agent = cfg_.topology.numCpus() - 1;
        if (n > agent)
            ztx_fatal("enableIo needs the last topology CPU slot "
                      "free (activeCpus <= ",
                      agent, ")");
        io_ = std::make_unique<IoSubsystem>(hierarchy_, memory_,
                                            agent);
    }
    if (cfg_.faults.enabled()) {
        injector_ = std::make_unique<inject::FaultInjector>(
            cfg_.faults, cfg_.seed, hierarchy_, *this);
        for (auto &c : cpus_)
            injector_->attachCpu(*c);
        hierarchy_.setXiDelayProbe(injector_.get());
    }
    readyAt_.assign(n, 0);
    nextInterrupt_.assign(n, 0);
    if (cfg_.externalInterruptPeriod) {
        // Stagger the timer ticks across CPUs.
        for (unsigned i = 0; i < n; ++i) {
            nextInterrupt_[i] = cfg_.externalInterruptPeriod +
                                (cfg_.externalInterruptPeriod * i) / n;
        }
    }
}

Machine::~Machine() = default;

void
Machine::setProgram(CpuId id, const isa::Program *program)
{
    cpu(id).setProgram(program);
    readyAt_.at(id) = now_;
}

void
Machine::setProgramAll(const isa::Program *program)
{
    for (unsigned i = 0; i < numCpus(); ++i)
        setProgram(i, program);
}

bool
Machine::allHalted() const
{
    for (const auto &c : cpus_)
        if (!c->halted())
            return false;
    return true;
}

void
Machine::drainAllStores()
{
    for (const auto &c : cpus_)
        c->drainStores();
}

std::uint64_t
Machine::peekMem(Addr addr, unsigned size)
{
    drainAllStores();
    return memory_.read(addr, size);
}

void
Machine::requestSolo(CpuId cpu_id)
{
    // Millicode instances serialize: requesters queue FIFO; the
    // front of the queue holds solo mode.
    for (const CpuId queued : soloQueue_)
        if (queued == cpu_id)
            return;
    // Parking rewrites ready times, so every replaying CPU goes back
    // to stepping.
    if (spinReplaying_ != 0)
        spinWakeAll();
    soloQueue_.push_back(cpu_id);
    soloCpu_ = soloQueue_.front();
    soloRequestCounter_.inc();
}

void
Machine::releaseSolo(CpuId cpu_id)
{
    std::erase(soloQueue_, cpu_id);
    soloCpu_ = soloQueue_.empty() ? invalidCpu : soloQueue_.front();
}

Cycles
Machine::run(Cycles max_cycles)
{
    return cfg_.steer ? runSteered(max_cycles) : runHeap(max_cycles);
}

void
Machine::stepCpu(CpuId id)
{
    // Channel (I/O) traffic interleaves with CPU steps.
    while (io_ && !io_->idle() && ioReadyAt_ <= now_) {
        const Cycles io_cost = io_->pump();
        ioReadyAt_ =
            std::max(ioReadyAt_, now_) + std::max<Cycles>(io_cost, 1);
    }

    if (cfg_.externalInterruptPeriod && now_ >= nextInterrupt_[id]) {
        cpus_[id]->deliverExternalInterrupt();
        extDeliveredCounter_.inc();
        // A CPU parked for many periods (e.g. behind solo mode, or
        // stalled on a long interrupt-service penalty) must not
        // receive the missed ticks as a back-to-back burst: skip
        // past every period boundary already behind us so at most
        // one interrupt is delivered per period.
        const Cycles period = cfg_.externalInterruptPeriod;
        nextInterrupt_[id] += period;
        if (nextInterrupt_[id] <= now_) {
            const Cycles missed =
                (now_ - nextInterrupt_[id]) / period + 1;
            extSkippedCounter_.inc(missed);
            nextInterrupt_[id] += missed * period;
        }
    }

    // In steered mode this runs before *every* step, so scripted
    // scenario triggers fire exactly at enumeration decision points
    // (see inject/steer.hh).
    if (injector_)
        injector_->beforeStep(id, now_);

    stepCounter_.inc();
    Cycles cost = cpus_[id]->step();
    cost += cpus_[id]->consumePendingStall();
    // Zero-cost steps model superscalar grouping; the CPU's dispatch
    // credit bounds how many occur per cycle.
    readyAt_[id] = now_ + cost;
}

Cycles
Machine::runHeap(Cycles max_cycles)
{
    const Cycles start = now_;
    const bool bounded = max_cycles != ~Cycles(0);
    const Cycles end_cycle =
        bounded ? start + max_cycles : ~Cycles(0);

    ReadyHeap heap;
    for (unsigned i = 0; i < numCpus(); ++i)
        if (!cpus_[i]->halted())
            heap.push({readyAt_[i], i});
    spinOn_ = spinAllowed();
    if (spinOn_)
        spinReset();

    // (Re-)arm the forward-progress watchdog for this run call.
    if (cfg_.watchdogCycles != 0) {
        lastProgressAt_ = now_;
        lastProgressSum_ = progressSum();
    }

    // The CPU just stepped is held out of the heap. Each pick takes
    // the minimum of the heap top and the held entry, i.e. the
    // minimum of the same set the heap alone would hold, so the step
    // order is unchanged; a CPU that is still the minimum (zero-cost
    // steps, a leader) runs again without a push/pop pair.
    ReadyEntry held;
    bool holding = false;
    while (holding || !heap.empty()) {
        ReadyEntry pick;
        if (holding && (heap.empty() || !(heap.top() < held))) {
            pick = held;
        } else {
            if (holding)
                heap.push(held);
            pick = heap.top();
            heap.pop();
        }
        holding = false;
        const auto [t, id] = pick;
        if (t != readyAt_[id] || cpus_[id]->halted())
            continue; // stale entry

        // Solo mode: park everyone but the solo CPU. A halted
        // holder releases automatically (safety).
        if (soloCpu_ != invalidCpu && id != soloCpu_) {
            if (cpus_[soloCpu_]->halted()) {
                releaseSolo(soloCpu_);
            } else {
                // Small per-CPU jitter disperses the wake-up herd
                // when the holder releases.
                readyAt_[id] = std::max(readyAt_[soloCpu_], t) + 1 +
                               (id & 7);
                heap.push({readyAt_[id], id});
                continue;
            }
        }

        now_ = std::max(now_, t);
        if (now_ >= end_cycle) {
            heap.push({readyAt_[id], id});
            now_ = end_cycle;
            break;
        }

        const bool watched = spinOn_ && spinActive_[id];
        if (watched) {
            // A replaying CPU's live entry is its wake step.
            if (spin_[id].replaying) {
                spinAdvance(id, spin_[id].wake);
                spinLeave(id);
            }
            if (spin_[id].recording)
                spinRecordStep(id);
        }
        const Addr ia0 = cpus_[id]->psw().ia;
        stepping_ = id;
        stepCpu(id);
        bool replaying = false;
        if (spinOn_) {
            if (!spinWoken_.empty())
                spinSettle(heap);
            replaying = (spinActive_[id] ||
                         cpus_[id]->psw().ia <= ia0) &&
                        !cpus_[id]->halted() &&
                        spinAfterStep(id, ia0, heap);
        }
        if (!cpus_[id]->halted() && !replaying) {
            held = {readyAt_[id], id};
            holding = true;
        }

        if (cfg_.watchdogCycles != 0) {
            // O(1) per step: commits/region-closes/halts bump
            // progressTicks_ via noteProgress(); channel transfers
            // count through io_->completed().
            const std::uint64_t sum = progressSum();
            if (sum != lastProgressSum_) {
                lastProgressSum_ = sum;
                lastProgressAt_ = now_;
            } else if (now_ - lastProgressAt_ >=
                       cfg_.watchdogCycles) {
                fireWatchdog();
                break;
            }
        }
    }
    if (spinOn_)
        spinFinish(bounded, end_cycle);
    return now_ - start;
}

Cycles
Machine::runSteered(Cycles max_cycles)
{
    const Cycles start = now_;
    const bool bounded = max_cycles != ~Cycles(0);
    const Cycles end_cycle =
        bounded ? start + max_cycles : ~Cycles(0);

    std::vector<CpuId> runnable;
    runnable.reserve(numCpus());
    while (true) {
        // A halted solo holder releases automatically (safety),
        // exactly as in the heap scheduler (runHeap).
        while (soloCpu_ != invalidCpu && cpus_[soloCpu_]->halted())
            releaseSolo(soloCpu_);

        runnable.clear();
        if (soloCpu_ != invalidCpu) {
            runnable.push_back(soloCpu_);
        } else {
            for (unsigned i = 0; i < numCpus(); ++i)
                if (!cpus_[i]->halted())
                    runnable.push_back(i);
        }
        if (runnable.empty())
            break;

        const CpuId id = cfg_.steer->choose(runnable);
        if (id == invalidCpu)
            break; // steer-requested stop (frontier cap)
        if (id >= numCpus() || cpus_[id]->halted() ||
            (soloCpu_ != invalidCpu && id != soloCpu_))
            ztx_fatal("steer chose unrunnable CPU ", id);

        // Time advances monotonically: stepping a CPU whose ready
        // time is in the future drags `now` forward; stepping one
        // that was ready in the past costs nothing extra. Cycle
        // values are therefore schedule-dependent in steered mode —
        // only the step order is the enumeration's contract.
        now_ = std::max(now_, readyAt_[id]);
        if (now_ >= end_cycle) {
            now_ = end_cycle;
            break;
        }

        stepCpu(id);
    }
    return now_ - start;
}

void
Machine::fireWatchdog()
{
    watchdogFired_ = true;
    stats_.counter("watchdog.fired").inc();

    Json doc = Json::object();
    doc["kind"] = "ztx.watchdog";
    doc["fired_at_cycle"] = std::uint64_t(now_);
    doc["window_cycles"] = std::uint64_t(cfg_.watchdogCycles);
    doc["solo_holder"] = soloCpu_ == invalidCpu
                             ? std::int64_t(-1)
                             : std::int64_t(soloCpu_);
    Json queue = Json::array();
    for (const CpuId c : soloQueue_)
        queue.push(c);
    doc["solo_queue"] = std::move(queue);

    Json cpu_diags = Json::array();
    for (const auto &c : cpus_)
        cpu_diags.push(c->diagnosticJson());
    doc["cpus"] = std::move(cpu_diags);
    if (injector_) {
        doc["inject"] = injector_->stats().toJson();
        doc["fault_plan"] = inject::faultPlanJson(cfg_.faults);
        // What the injector actually did, and most recently: the
        // first question a stall diagnosis asks is "was the chaos
        // plan firing, and at whom".
        doc["inject_fired"] = injector_->firedCountsJson();
        doc["inject_recent"] = injector_->recentFiresJson();
    }
    watchdogReport_ = std::move(doc);

    ztx_warn("forward-progress watchdog fired at cycle ", now_,
             ": no commit/region/halt for ", cfg_.watchdogCycles,
             " cycles (livelock); see Machine::watchdogReport()");
}

IoSubsystem &
Machine::io()
{
    if (!io_)
        ztx_fatal("I/O subsystem not enabled (MachineConfig::"
                  "enableIo)");
    return *io_;
}

void
Machine::drainIo()
{
    if (!io_)
        return;
    while (!io_->idle()) {
        const Cycles cost = io_->pump();
        now_ += std::max<Cycles>(cost, 1);
    }
}

Json
Machine::statsJson() const
{
    Json doc = Json::object();
    doc["kind"] = "ztx.machine.stats";

    Json meta = machineConfigJson(cfg_);
    meta["instantiated_cpus"] = numCpus();
    meta["elapsed_cycles"] = std::uint64_t(now_);
    doc["meta"] = std::move(meta);

    doc["machine"] = stats_.toJson();
    doc["hierarchy"] = hierarchy_.stats().toJson();
    doc["os"] = os_.stats().toJson();
    if (io_)
        doc["io"] = io_->stats().toJson();
    if (injector_)
        doc["inject"] = injector_->stats().toJson();
    if (watchdogFired_)
        doc["watchdog"] = watchdogReport_;

    Json cpu_groups = Json::array();
    for (const auto &c : cpus_)
        cpu_groups.push(c->stats().toJson());
    doc["cpus"] = std::move(cpu_groups);
    return doc;
}

void
Machine::dumpStatsJson(std::ostream &out, int indent) const
{
    statsJson().write(out, indent);
    out << '\n';
}

Json
machineConfigJson(const MachineConfig &config)
{
    Json meta = Json::object();
    meta["seed"] = config.seed;
    meta["active_cpus"] = config.activeCpus;
    meta["external_interrupt_period"] =
        std::uint64_t(config.externalInterruptPeriod);
    meta["io_enabled"] = config.enableIo;
    meta["watchdog_cycles"] = std::uint64_t(config.watchdogCycles);
    if (config.faults.enabled())
        meta["faults"] = inject::faultPlanJson(config.faults);

    Json topo = Json::object();
    topo["cores_per_chip"] = config.topology.coresPerChip();
    topo["chips_per_mcm"] = config.topology.chipsPerMcm();
    topo["mcms"] = config.topology.numMcms();
    topo["total_cpus"] = config.topology.numCpus();
    meta["topology"] = std::move(topo);

    Json tm = Json::object();
    tm["max_nesting_depth"] = config.tm.maxNestingDepth;
    tm["store_cache_entries"] = config.tm.storeCacheEntries;
    tm["xi_reject_abort_threshold"] =
        config.tm.xiRejectAbortThreshold;
    tm["dispatch_width"] = config.tm.dispatchWidth;
    tm["ppa_base_delay"] = std::uint64_t(config.tm.ppaBaseDelay);
    tm["ppa_max_shift"] = config.tm.ppaMaxShift;
    tm["speculative_overmark_prob"] =
        config.tm.speculativeOvermarkProb;
    tm["lru_extension_enabled"] = config.tm.lruExtensionEnabled;
    tm["stiff_arm_enabled"] = config.tm.stiffArmEnabled;
    meta["tm"] = std::move(tm);
    return meta;
}

} // namespace ztx::sim
