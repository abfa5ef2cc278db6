// Layer probes: direct, timed calls into one layer's public functions, made
// from outside the library on the benchmark corpus. The traced run uses them
// to report per-layer metrics.
#pragma once

#include <functional>

#include "corpus.hpp"
#include "stats.hpp"

namespace perfbench {

/// Median wall time of `reps` calls to `fn`, in milliseconds.
double median_ms(int reps, const std::function<void()>& fn);

/// zeek.*, roofline.*, core.fold_ms / join_admitted_frac / unique_chains,
/// core.analyze_* (StudyPipeline::analyze with a RunContext), core.render_*,
/// trace.overhead_frac (analyze traced vs untraced) and
/// svc.append.reanalyze_ms (analyze of a corpus the size of the base load).
void probe_core_layers(const Corpus& corpus, MetricSet& out);

/// svc.codec.encode_us / decode_us: encode_frame and FrameReader on a mix of
/// request frames and a full-report response.
void probe_codec(const Corpus& corpus, MetricSet& out);

/// ct.prove_us: ServiceState::ct_prove_inclusion over logged fingerprints.
void probe_ct(const Corpus& corpus, MetricSet& out);

/// svc.append.wal_ms: WriteAheadLog::append (write + fsync) of a batch the
/// size of one fleet epoch, in the work directory.
void probe_wal(const Corpus& corpus, MetricSet& out);

}  // namespace perfbench
