/**
 * @file
 * Figure 5(a)-(d): the update micro-benchmark swept over CPU counts,
 * synchronization methods and pool sizes, reported as throughput
 * normalized to 2 CPUs / 1 variable / pool of 1 under the coarse
 * lock. One sweep loop serves all four panels; CMake builds this
 * file once per panel (fig5a ... fig5d) and names the panel's row in
 * ZTX_FIG5_PANEL. Expected shapes (paper §IV):
 *  (a) 4 variables, pools 1k/10k: the coarse lock is poor and
 *      roughly flat with steps at chip/MCM boundaries; transactions
 *      scale nearly linearly; TBEGIN on the 1k pool flattens/drops
 *      at high CPU counts from the rising conflict rate but stays
 *      above the lock.
 *  (b) 1 variable, pool 10: fine-grained locks beat the coarse lock
 *      but stop scaling around 10 CPUs and decline; transactions
 *      grow up to ~24 CPUs (the tested MCM node size), hold roughly
 *      steady beyond, and beat the locks across the whole range.
 *  (c) 4 variables, pool 10 (extreme contention): transactions are
 *      competitive at low CPU counts, beyond that the coarse lock
 *      wins — a transaction must own all 4 lines to commit and keeps
 *      aborting while it waits, whereas a lock holder is guaranteed
 *      to finish. Constrained transactions (millicode escalation, no
 *      fallback) hold up slightly better than TBEGIN.
 *  (d) 4 variables read, pool 10k: the RW lock flattens out because
 *      every reader entry/exit updates the read-count word, which
 *      ping-pongs between CPUs; transactions only check that no
 *      writer is present, so the lock-word line stays shared and
 *      throughput grows almost linearly.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "json_report.hh"
#include "workload/report.hh"

#ifndef ZTX_FIG5_PANEL
#error "ZTX_FIG5_PANEL must name the panel (\"fig5a\" ... \"fig5d\")"
#endif

namespace {

using namespace ztx;
using namespace ztx::workload;

/** One panel of figure 5 (a)-(d): what it sweeps and its labels. */
struct Panel
{
    /** Binary and report name. */
    const char *name;
    /** First header line of the printed table. */
    const char *heading;
    /** Table columns, one per (pool, method) in sweep order. */
    std::vector<std::string> series;
    std::vector<unsigned> pools;
    unsigned varsPerOp;
    bool readOnly;
    std::vector<SyncMethod> methods;
    /** Variant "<method>-<pool>" (several pools) or "<method>". */
    bool poolInVariant;
};

const Panel panels[] = {
    {"fig5a",
     "# Figure 5(a): TX vs locks, four variables, poolsizes 1k/10k",
     {"Lock-1k", "TBEGINC-1k", "TBEGIN-1k", "Lock-10k", "TBEGINC-10k",
      "TBEGIN-10k"},
     {1000, 10000},
     4,
     false,
     {SyncMethod::CoarseLock, SyncMethod::TBeginc, SyncMethod::TBegin},
     true},
    {"fig5b",
     "# Figure 5(b): TX vs locks, single variable, poolsize 10",
     {"CoarseLock", "FineLock", "TBEGINC", "TBEGIN"},
     {10},
     1,
     false,
     {SyncMethod::CoarseLock, SyncMethod::FineLock,
      SyncMethod::TBeginc, SyncMethod::TBegin},
     false},
    {"fig5c",
     "# Figure 5(c): TX vs locks, four variables, poolsize 10",
     {"Lock", "TBEGINC", "TBEGIN"},
     {10},
     4,
     false,
     {SyncMethod::CoarseLock, SyncMethod::TBeginc, SyncMethod::TBegin},
     false},
    {"fig5d",
     "# Figure 5(d): TX vs read-write lock, four variables read, "
     "poolsize 10k",
     {"RW-Lock", "TBEGINC"},
     {10000},
     4,
     true,
     {SyncMethod::RwLock, SyncMethod::TBeginc},
     false},
};

const Panel &
selectedPanel()
{
    for (const Panel &panel : panels) {
        if (std::strcmp(panel.name, ZTX_FIG5_PANEL) == 0)
            return panel;
    }
    std::fprintf(stderr, "fig5: unknown panel %s\n", ZTX_FIG5_PANEL);
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    const Panel &panel = selectedPanel();
    bench::JsonReport report(panel.name, argc, argv);
    const double ref = bench::normalizationReference();
    report.setMachineConfig(bench::benchMachine());
    report.meta()["iterations"] = bench::benchIterations();
    report.meta()["normalization_reference"] = ref;

    std::printf("%s\n", panel.heading);
    std::printf("# normalized throughput (100 = 2 CPUs, 1 var, "
                "pool 1, coarse lock)\n");

    // One point per (CPU count, pool, method), in table order.
    std::vector<UpdateBenchConfig> points;
    for (const unsigned cpus : bench::cpuPoints()) {
        for (const unsigned pool : panel.pools) {
            for (const SyncMethod method : panel.methods) {
                UpdateBenchConfig cfg;
                cfg.cpus = cpus;
                cfg.poolSize = pool;
                cfg.varsPerOp = panel.varsPerOp;
                cfg.readOnly = panel.readOnly;
                cfg.method = method;
                cfg.iterations = bench::benchIterations();
                cfg.machine = bench::benchMachine();
                points.push_back(cfg);
            }
        }
    }
    const auto results = bench::runUpdatePoints(points);

    const std::size_t row_size =
        panel.pools.size() * panel.methods.size();
    SeriesTable table("CPUs", panel.series);
    std::vector<double> row;
    for (std::size_t i = 0; i < points.size(); ++i) {
        const UpdateBenchConfig &point = points[i];
        const auto &res = results[i];
        const double normalized = 100.0 * res.throughput / ref;
        row.push_back(normalized);

        const std::string method_name = syncMethodName(point.method);
        Json rec = Json::object();
        rec["cpus"] = point.cpus;
        rec["pool"] = point.poolSize;
        rec["vars_per_op"] = panel.varsPerOp;
        if (panel.readOnly)
            rec["read_only"] = true;
        rec["variant"] =
            panel.poolInVariant
                ? method_name + "-" + std::to_string(point.poolSize)
                : method_name;
        rec["method"] = method_name;
        rec["normalized_throughput"] = normalized;
        rec["xi_rejects"] = res.xiRejects;
        report.addResult(res, std::move(rec));

        if (row.size() == row_size) {
            table.addRow(point.cpus, row);
            row.clear();
        }
    }
    table.print(std::cout);
    return report.write() ? 0 : 1;
}
