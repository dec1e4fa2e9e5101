// The benchmark's workloads. Each fills `result` with every end-to-end
// metric (untraced run) or its per-layer metrics (traced run, spans in
// `spans`). README.md says what each measures and why.
#pragma once

#include "bench.hpp"

namespace perfbench {

/// Batch fleet day: 250k nodes x 24 h on the SoA engine, jobs=1 and
/// jobs=4, plus the one-shot 24 h node run and sizing of fleet nodes.
void run_fleet_day(const Args& args, Result& result, SpanLog& spans);

/// Open-loop load against an in-process serve::Server (jobs=2, two
/// connections): `hot` repeats keys warmed during set-up; otherwise
/// every request carries a fresh key from a seeded sim/sizing/fleet mix.
void run_serve(const Args& args, bool hot, Result& result, SpanLog& spans);

}  // namespace perfbench
