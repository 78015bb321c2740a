/**
 * @file
 * Standalone validator for BENCH_<name>.json documents: parses the
 * file with the in-tree JSON parser and checks the ztx.bench schema
 * (kind, schema_version, bench, meta, non-empty records, sim_speed).
 * Exit code 0 only for a well-formed report; used by the
 * bench_json_smoke ctest target.
 */

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "common/json.hh"

namespace {

int
fail(const char *path, const char *what)
{
    std::fprintf(stderr, "json_check: %s: %s\n", path, what);
    return 1;
}

bool
isOneOf(const ztx::Json &v,
        std::initializer_list<const char *> names)
{
    if (!v.isString())
        return false;
    for (const char *n : names)
        if (v.str() == n)
            return true;
    return false;
}

/**
 * Validate one record's "fault_plan" section: every rate and shape
 * parameter numeric, schedule entries carrying at/kind/target/line,
 * scenario steps carrying the full trigger grammar with names drawn
 * from the known sets. Returns nullptr when well-formed, else a
 * static message.
 */
const char *
checkFaultPlan(const ztx::Json &plan)
{
    if (!plan.isObject())
        return "fault_plan is not an object";
    for (const char *key :
         {"spurious_abort_rate", "xi_storm_rate",
          "capacity_squeeze_rate", "interrupt_storm_rate",
          "delayed_xi_rate", "targeted_conflict_rate",
          "poison_rate", "xi_storm_burst", "squeeze_l1_ways",
          "squeeze_l2_ways", "squeeze_duration", "interrupt_burst",
          "xi_delay_max", "targeted_line", "seed"}) {
        const ztx::Json *v = plan.find(key);
        if (!v || !v->isNumber())
            return "fault_plan parameter missing or not numeric";
    }
    const ztx::Json *sched = plan.find("schedule");
    if (!sched || !sched->isArray())
        return "fault_plan.schedule missing";
    for (std::size_t i = 0; i < sched->size(); ++i) {
        const ztx::Json &f = sched->at(i);
        const ztx::Json *at = f.find("at");
        const ztx::Json *tgt = f.find("target");
        const ztx::Json *line = f.find("line");
        const ztx::Json *kind = f.find("kind");
        if (!at || !at->isNumber() || !tgt || !tgt->isNumber() ||
            !line || !line->isNumber())
            return "schedule entry with bad at/target/line";
        if (!kind ||
            !isOneOf(*kind, {"spurious_abort", "xi_storm",
                             "capacity_squeeze", "interrupt_storm",
                             "delayed_xi", "targeted_conflict",
                             "poison_line"}))
            return "schedule entry with unknown kind";
    }
    const ztx::Json *scen = plan.find("scenario");
    if (!scen || !scen->isArray())
        return "fault_plan.scenario missing";
    for (std::size_t i = 0; i < scen->size(); ++i) {
        const ztx::Json &s = scen->at(i);
        const ztx::Json *trig = s.find("trigger");
        if (!trig || !isOneOf(*trig, {"at_cycle", "on_abort",
                                      "on_footprint", "after_step"}))
            return "scenario step with unknown trigger";
        const ztx::Json *kind = s.find("kind");
        if (!kind ||
            !isOneOf(*kind, {"spurious_abort", "xi_storm",
                             "capacity_squeeze", "interrupt_storm",
                             "delayed_xi", "targeted_conflict",
                             "poison_line"}))
            return "scenario step with unknown kind";
        const ztx::Json *check = s.find("check");
        if (!check ||
            !isOneOf(*check, {"none", "target_in_tx",
                              "target_not_in_tx",
                              "line_in_target_footprint"}))
            return "scenario step with unknown check";
        for (const char *key : {"at", "period", "repeat", "watch",
                                "count", "line", "after", "target"}) {
            const ztx::Json *v = s.find(key);
            if (!v || !v->isNumber())
                return "scenario step field missing or not numeric";
        }
    }
    return nullptr;
}

/**
 * Validate one record's "litmus" section: the enumeration verdict
 * must be a known value, the explored-schedule count positive, and
 * the outcome list well-formed (non-empty for any uncapped run).
 * Returns nullptr when well-formed, else a static message.
 */
const char *
checkLitmus(const ztx::Json &lit)
{
    if (!lit.isObject())
        return "litmus is not an object";
    const ztx::Json *test = lit.find("test");
    if (!test || !test->isString() || test->str().empty())
        return "litmus.test missing";
    const ztx::Json *verdict = lit.find("verdict");
    if (!verdict ||
        !isOneOf(*verdict, {"ok", "violation", "frontier-capped"}))
        return "litmus.verdict unknown";
    const ztx::Json *explored = lit.find("schedules_explored");
    if (!explored || !explored->isNumber() ||
        explored->asUint() == 0)
        return "litmus.schedules_explored missing or zero";
    for (const char *key :
         {"capped", "cap_reason", "decisions", "steps_total",
          "max_depth", "outcomes_seen", "commits", "aborts",
          "scenario_fired"}) {
        if (!lit.contains(key))
            return "litmus field missing";
    }
    const ztx::Json *outs = lit.find("outcomes");
    if (!outs || !outs->isArray())
        return "litmus.outcomes missing";
    if (verdict->str() == "ok" && outs->size() == 0)
        return "litmus verdict ok with no outcomes";
    for (std::size_t i = 0; i < outs->size(); ++i) {
        const ztx::Json &o = outs->at(i);
        const ztx::Json *state = o.find("state");
        const ztx::Json *count = o.find("count");
        if (!state || !state->isString() || !count ||
            !count->isNumber() || count->asUint() == 0)
            return "litmus outcome entry malformed";
    }
    const ztx::Json *viol = lit.find("violations");
    if (!viol || !viol->isArray())
        return "litmus.violations missing";
    if ((verdict->str() == "violation") != (viol->size() > 0))
        return "litmus verdict inconsistent with violations list";
    // The frontier-cap contract: a capped enumeration may never
    // report "ok", and an uncapped one may never blame a cap.
    const ztx::Json *capped = lit.find("capped");
    if (capped->boolean() && verdict->str() == "ok")
        return "litmus capped enumeration with verdict ok";
    if (!capped->boolean() && verdict->str() == "frontier-capped")
        return "litmus frontier-capped without capped flag";
    return nullptr;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc != 2) {
        std::fprintf(stderr, "usage: json_check <BENCH_*.json>\n");
        return 2;
    }
    const char *path = argv[1];
    std::ifstream in(path);
    if (!in)
        return fail(path, "cannot open");
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string text = buf.str();

    const auto doc = ztx::Json::parse(text);
    if (!doc)
        return fail(path, "parse error");

    const ztx::Json *kind = doc->find("kind");
    if (!kind || kind->str() != "ztx.bench")
        return fail(path, "kind != ztx.bench");
    const ztx::Json *version = doc->find("schema_version");
    if (!version || version->asUint() < 1)
        return fail(path, "bad schema_version");
    const ztx::Json *bench = doc->find("bench");
    if (!bench || bench->str().empty())
        return fail(path, "missing bench name");
    if (!doc->contains("meta"))
        return fail(path, "missing meta");
    const ztx::Json *records = doc->find("records");
    if (!records || records->size() == 0)
        return fail(path, "missing or empty records");
    // Determinism is part of the schema contract: any record that
    // carries a determinism verdict must carry a passing one.
    for (std::size_t i = 0; i < records->size(); ++i) {
        const ztx::Json &rec = records->at(i);
        const ztx::Json *det = rec.find("determinism_ok");
        if (det && !det->boolean())
            return fail(path, "record with determinism_ok=false");
        // History-checker shape: a record produced with the op log
        // on (op_log=true) must carry exactly one checker section —
        // order_infer (inferred order) or lincheck (fallback /
        // truncated). Both, neither, or a section without op_log
        // all mean the producer mis-wired the oracles.
        const ztx::Json *oplog = rec.find("op_log");
        const bool logged = oplog && oplog->boolean();
        const bool has_lc = rec.contains("lincheck");
        const bool has_oi = rec.contains("order_infer");
        if (logged && has_lc == has_oi)
            return fail(path, has_lc
                                  ? "op_log record with both "
                                    "lincheck and order_infer"
                                  : "op_log record with neither "
                                    "lincheck nor order_infer");
        if (!logged && (has_lc || has_oi))
            return fail(path, "checker section on a record "
                              "without op_log=true");
        // Chaos records archive the campaign that produced them;
        // a malformed plan section means replaying the record is
        // impossible, so it fails validation outright.
        if (const ztx::Json *plan = rec.find("fault_plan"))
            if (const char *why = checkFaultPlan(*plan))
                return fail(path, why);
        // Litmus records carry the enumeration verdict; a malformed
        // one could let a capped or violating corpus slip past CI.
        if (const ztx::Json *lit = rec.find("litmus"))
            if (const char *why = checkLitmus(*lit))
                return fail(path, why);
    }
    const ztx::Json *speed = doc->find("sim_speed");
    if (!speed)
        return fail(path, "missing sim_speed");
    for (const char *key :
         {"host_seconds", "sim_cycles", "instructions",
          "sim_cycles_per_host_second",
          "instructions_per_host_second"}) {
        if (!speed->contains(key))
            return fail(path, "incomplete sim_speed");
    }
    std::printf("json_check: %s: OK (%zu records)\n", path,
                records->size());
    return 0;
}
