/**
 * @file
 * The zTX machine: topology, memory, hierarchy, CPUs, and the
 * deterministic scheduler that advances them.
 *
 * Scheduling model: each CPU has a ready time in global cycles; the
 * machine repeatedly steps the CPU with the smallest ready time
 * (ties broken by CPU id), adding the step's cycle cost plus any
 * pending stall (abort penalties, millicode backoff). Coherence
 * actions happen synchronously inside a step, so a single-threaded,
 * fully reproducible simulation emerges; concurrency shows up as the
 * interleaving of steps at cycle granularity.
 *
 * The machine also implements the millicode "broadcast-stop" (solo
 * mode): while a CPU holds solo, every other CPU is parked until
 * release — the paper's last-resort guarantee for constrained
 * transactions.
 */

#ifndef ZTX_SIM_MACHINE_HH
#define ZTX_SIM_MACHINE_HH

#include <array>
#include <deque>
#include <memory>
#include <ostream>
#include <queue>
#include <vector>

#include "common/json.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "core/config.hh"
#include "core/cpu.hh"
#include "inject/fault_injector.hh"
#include "inject/fault_plan.hh"
#include "debug/os_model.hh"
#include "sim/io_subsystem.hh"
#include "debug/page_table.hh"
#include "mem/geometry.hh"
#include "mem/hierarchy.hh"
#include "mem/latency_model.hh"
#include "mem/main_memory.hh"
#include "mem/topology.hh"
#include "sim/spin_profile.hh"

namespace ztx::inject {
class ScheduleSteer;
}

namespace ztx::sim {

/** Everything configurable about a machine. */
struct MachineConfig
{
    mem::Topology topology{6, 4, 5};
    mem::LatencyModel latency{};
    mem::HierarchyGeometry geometry{};
    core::TmConfig tm{};

    /** CPUs to instantiate; 0 means all of the topology. */
    unsigned activeCpus = 0;

    /** Master seed; per-CPU RNGs derive from it. */
    std::uint64_t seed = 1;

    /**
     * Period of per-CPU asynchronous (external) interruptions in
     * cycles; 0 disables them.
     */
    Cycles externalInterruptPeriod = 0;

    /**
     * Instantiate the I/O (channel) subsystem. It occupies the last
     * CPU slot of the topology on the coherence fabric, so
     * activeCpus must leave that slot free.
     */
    bool enableIo = false;

    /**
     * Fault-injection campaign (chaos testing, src/inject). The
     * default plan is inert: no injector is instantiated and the
     * machine behaves exactly as without the subsystem.
     */
    inject::FaultPlan faults{};

    /**
     * Forward-progress watchdog: if no CPU retires a progress event
     * (transaction commit, measured-region close, halt) and the
     * channel subsystem completes no transfer for this many cycles,
     * run() stops deterministically, records a diagnosis bundle
     * (watchdogReport()), and returns instead of spinning forever.
     * 0 disables the watchdog.
     */
    Cycles watchdogCycles = 0;

    /**
     * Schedule steering hook (enumeration-mode stepping, see
     * inject/steer.hh and src/litmus). When set, run() ignores
     * ready-time ordering and instead asks the steer to pick the
     * next CPU from the runnable set before every step; simulated
     * time still advances monotonically (stepping a CPU drags `now`
     * up to its ready time). Non-owning; must outlive the machine.
     * Not serialized (a steered run is an enumeration artifact, not
     * a reproducible configuration).
     */
    inject::ScheduleSteer *steer = nullptr;

    /**
     * Replay CPUs that wait in a fixed-point spin loop instead of
     * stepping them (DESIGN.md §5b, "Replayed spinners"). Stats are
     * byte-identical either way; the switch exists for the
     * differential test. Not serialized.
     */
    bool spinFastForward = true;
};

/** A complete simulated SMP machine. */
class Machine : public core::CpuEnv
{
  public:
    explicit Machine(const MachineConfig &config);
    ~Machine() override;

    Machine(const Machine &) = delete;
    Machine &operator=(const Machine &) = delete;

    /** Number of instantiated CPUs. */
    unsigned numCpus() const { return unsigned(cpus_.size()); }

    /** CPU @p id. */
    core::Cpu &cpu(CpuId id) { return *cpus_.at(id); }
    const core::Cpu &cpu(CpuId id) const { return *cpus_.at(id); }

    /** @name Shared components @{ */
    mem::MainMemory &memory() { return memory_; }
    mem::Hierarchy &hierarchy() { return hierarchy_; }
    const mem::Hierarchy &hierarchy() const { return hierarchy_; }
    debug::PageTable &pageTable() { return pageTable_; }
    debug::OsModel &os() { return os_; }
    /** The channel subsystem (fatal unless enableIo was set). */
    IoSubsystem &io();
    /** @} */

    /** Pump the I/O subsystem until its queue is empty. */
    void drainIo();

    /** Bind @p program to CPU @p id (resets its PSW). */
    void setProgram(CpuId id, const isa::Program *program);

    /** Bind @p program to every CPU. */
    void setProgramAll(const isa::Program *program);

    /**
     * Run until every CPU halts or @p max_cycles elapse from now.
     * @return Global cycles elapsed during this call.
     */
    Cycles run(Cycles max_cycles = ~Cycles(0));

    /** True once every CPU has halted. */
    bool allHalted() const;

    /** Drain every CPU's buffered stores (host-side inspection). */
    void drainAllStores();

    /** Functional memory read merging all CPUs' store buffers. */
    std::uint64_t peekMem(Addr addr, unsigned size);

    /**
     * The complete machine state as one JSON document: run metadata
     * (seed, topology, active CPUs, TM configuration, elapsed
     * cycles) plus the machine, hierarchy, OS, I/O, and per-CPU
     * stat groups.
     */
    Json statsJson() const;

    /** Serialize statsJson(). @param indent as Json::write. */
    void dumpStatsJson(std::ostream &out, int indent = 2) const;

    /** The configuration this machine was built from. */
    const MachineConfig &config() const { return cfg_; }

    /** Machine-level stats: scheduler steps, interrupts, solo. */
    StatGroup &stats() { return stats_; }
    const StatGroup &stats() const { return stats_; }

    /** @name Fault injection & watchdog @{ */
    /** The fault injector (nullptr when the plan is inert). */
    inject::FaultInjector *injector() { return injector_.get(); }

    /** True once the forward-progress watchdog stopped a run. */
    bool watchdogFired() const { return watchdogFired_; }

    /**
     * Diagnosis bundle captured when the watchdog fired: solo-mode
     * state, per-CPU abort histories / TDB addresses / ladder
     * positions, and injection stats. Null before any firing.
     */
    const Json &watchdogReport() const { return watchdogReport_; }
    /** @} */

    /** @name core::CpuEnv @{ */
    Cycles now() const override { return now_; }
    void requestSolo(CpuId cpu) override;
    void releaseSolo(CpuId cpu) override;
    CpuId soloHolder() const override { return soloCpu_; }
    void noteProgress(CpuId cpu) override
    {
        (void)cpu;
        ++progressTicks_;
    }
    void noteXi(CpuId cpu) override;
    /** @} */

    /**
     * Steps replayed rather than stepped so far (spinFastForward).
     * A host-side count, not a stat: the stats documents are the
     * same with replay on and off.
     */
    std::uint64_t spinReplayedSteps() const { return replayedSteps_; }

  private:
    MachineConfig cfg_;
    mem::MainMemory memory_;
    mem::Hierarchy hierarchy_;
    debug::PageTable pageTable_;
    debug::OsModel os_;
    std::vector<std::unique_ptr<core::Cpu>> cpus_;

    Cycles now_ = 0;
    std::vector<Cycles> readyAt_;
    std::vector<Cycles> nextInterrupt_;
    StatGroup stats_{"machine"};
    /** @name Hot-path counters, resolved once @{ */
    Counter &stepCounter_ = stats_.counter("scheduler.steps");
    Counter &extDeliveredCounter_ =
        stats_.counter("external.delivered");
    Counter &extSkippedCounter_ =
        stats_.counter("external.periods_skipped");
    Counter &soloRequestCounter_ = stats_.counter("solo.requests");
    /** @} */
    std::unique_ptr<IoSubsystem> io_;
    Cycles ioReadyAt_ = 0;
    /**
     * FIFO of CPUs waiting for (or holding) solo mode; the front is
     * the current holder. Millicode instances on different CPUs
     * serialize through this queue (paper §III.E).
     */
    std::deque<CpuId> soloQueue_;
    CpuId soloCpu_ = invalidCpu;

    void fireWatchdog();

    using ReadyEntry = std::pair<Cycles, CpuId>;
    using ReadyHeap =
        std::priority_queue<ReadyEntry, std::vector<ReadyEntry>,
                            std::greater<ReadyEntry>>;

    /** The exact heap scheduler: smallest ready time first. */
    Cycles runHeap(Cycles max_cycles);

    /** Enumeration-mode stepping (cfg_.steer != nullptr). */
    Cycles runSteered(Cycles max_cycles);

    /**
     * Step CPU @p id at now_, the body both run loops share: pump
     * the channel subsystem, deliver a due external interrupt, let
     * the injector act, then step and set the CPU's next ready time
     * (step cost plus any pending stall).
     */
    void stepCpu(CpuId id);

    /**
     * @name Spin replay (spin_replay.cc; DESIGN.md §5b)
     * A CPU that runs a recorded fixed-point iteration leaves the
     * heap and its steps are replayed arithmetically; its heap entry,
     * if any, sits at its wake step.
     * @{
     */
    /** Per-CPU spin detection, profile and replay cursor. */
    struct SpinTrack
    {
        bool replaying = false;
        /** Recording `pending` (the iteration after loopPc). */
        bool recording = false;
        /** On spinWoken_, awaiting spinSettle(). */
        bool woken = false;
        /** The last qualifying iteration; kept across wakes. */
        SpinProfile profile;
        /**
         * Last taken backward-branch target, and the state
         * fingerprints of the last arrivals there (a ring, `arrivals`
         * entries at most). Several, because the dispatch credit can
         * cycle over more than one iteration.
         */
        Addr loopPc = ~Addr(0);
        std::array<std::uint64_t, 4> atLoopPc{};
        unsigned arrivals = 0;
        SpinProfile pending;
        /** Next replayed step; the step that wakes the CPU. */
        std::uint64_t next = 0;
        std::uint64_t wake = 0;
        std::int64_t origin = 0;
    };

    /** "The CPU never wakes by itself" (SpinTrack::wake). */
    static constexpr std::uint64_t noWake = ~std::uint64_t(0);

    /** Whether this run may replay at all. */
    bool spinAllowed() const;
    /** Forget every CPU's loop, profile and replay state. */
    void spinReset();
    /**
     * CPU @p id arrived at taken backward-branch target @p ia:
     * start recording if it was here in the same state (by
     * fingerprint; the recording checks the state) within the last
     * few arrivals.
     */
    void spinArrive(CpuId id, Addr ia);
    /** Record the step CPU @p id is about to take. */
    void spinRecordStep(CpuId id);
    /**
     * Detection, recording and re-entry after CPU @p id stepped
     * from @p ia0 (runHeap calls it only for an active CPU or a
     * backward branch). @return True if the CPU left the heap to
     * replay.
     */
    bool spinAfterStep(CpuId id, Addr ia0, ReadyHeap &heap);
    /** Start replaying CPU @p id at step @p next; see SpinTrack. */
    bool spinEnter(CpuId id, std::uint64_t next, std::int64_t origin,
                   ReadyHeap &heap);
    /**
     * First step from the cursor that must run for real: a load of a
     * line no longer in the L1, or a step at or after the CPU's next
     * external interrupt. noWake if none.
     */
    std::uint64_t spinWakeStep(CpuId id) const;
    /** First step at or after CPU @p id's next external interrupt. */
    std::uint64_t spinInterruptStep(CpuId id) const;
    /** Replay CPU @p id's steps up to (not including) step @p to. */
    void spinAdvance(CpuId id, std::uint64_t to);
    /** Replay CPU @p id's steps that run before cycle @p limit. */
    void spinCatchUp(CpuId id, Cycles limit);
    /**
     * Replay CPU @p id's steps that come before the step being taken,
     * and queue the CPU for spinSettle().
     */
    void spinCatchUpToStep(CpuId id);
    /** Stop replaying CPU @p id: restore the state at its cursor. */
    void spinLeave(CpuId id);
    /** Solo acquisition: every replaying CPU goes back to stepping. */
    void spinWakeAll();
    /** Give the CPUs woken during the last step their heap entries. */
    void spinSettle(ReadyHeap &heap);
    /** End of run: catch every replaying CPU up to @p end_cycle. */
    void spinFinish(bool bounded, Cycles end_cycle);

    bool spinOn_ = false;
    std::vector<SpinTrack> spin_;
    /**
     * Per CPU, 1 while it records or has a profile: the one byte the
     * run loop reads per step before it looks at spin_.
     */
    std::vector<std::uint8_t> spinActive_;
    unsigned spinReplaying_ = 0;
    std::vector<CpuId> spinWoken_;
    /** The CPU being stepped: with now_, the current step's key. */
    CpuId stepping_ = invalidCpu;
    std::uint64_t replayedSteps_ = 0;
    /** @} */

    /** O(1) watchdog progress sum: CPU ticks + I/O completions. */
    std::uint64_t progressSum() const
    {
        return progressTicks_ + (io_ ? io_->completed() : 0);
    }

    std::unique_ptr<inject::FaultInjector> injector_;
    /** @name Watchdog state @{ */
    std::uint64_t lastProgressSum_ = 0;
    Cycles lastProgressAt_ = 0;
    bool watchdogFired_ = false;
    Json watchdogReport_;
    /** @} */

    /**
     * Event-driven forward-progress counter (commits, region
     * closes, halts), bumped via noteProgress().
     */
    std::uint64_t progressTicks_ = 0;
};

/**
 * @p config as a JSON object (topology, TM parameters, seed, ...),
 * the run-metadata block of statsJson() and the bench reports.
 */
Json machineConfigJson(const MachineConfig &config);

} // namespace ztx::sim

#endif // ZTX_SIM_MACHINE_HH
