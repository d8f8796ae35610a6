// The benchmark's workloads. Each runs untraced (end-to-end metrics) or
// traced (per-layer metrics) and counts every operation it attempts in
// the ledger; correctness checks run outside every timed region.
#pragma once

#include "report.h"
#include "stats.h"
#include "trace.h"

namespace qcbench {

/// Theorem 1.1 diameter + radius pairs on ER graphs (closed loop, one
/// caller).
RunResult run_t11_er(const RunArgs& args, Tracer& tracer, FailureLedger& ledger);

/// Open-loop mixed query stream against one warm QueryEngine.
RunResult run_serve_mixed(const RunArgs& args, Tracer& tracer,
                          FailureLedger& ledger);

/// bgraph -> bcsr ingest pipeline plus dense simulator rounds (closed
/// loop, one job at a time).
RunResult run_big_ingest(const RunArgs& args, Tracer& tracer,
                         FailureLedger& ledger);

}  // namespace qcbench
