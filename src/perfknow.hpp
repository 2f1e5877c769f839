// perfknow: the consolidated public facade.
//
// One include for everything the library exposes, layered bottom-up the
// way the paper's system is layered: profile data model -> PerfDMF
// storage -> unified ingest -> analysis operations and fact builders ->
// the rule engine with its built-in knowledge -> provenance -> the
// PerfScript bindings -> telemetry self-observation -> the
// analysis-as-a-service layer (perfknow.api/1 daemon + client) -> the
// pkx entry point.
//
// Embedders, examples, the pkx CLI, and the server itself include this
// header instead of cherry-picking per-module headers; the per-module
// headers remain the unit of internal layering (and of documentation —
// each carries its module's design notes). Internal-only surface
// (openuh/ compiler internals, apps/ workload simulators, fuzz/
// harnesses, common/ utilities beyond errors) is deliberately NOT part
// of the facade.
#pragma once

// ---- diagnostics every layer throws ------------------------------------
#include "common/error.hpp"

// ---- profile data model ------------------------------------------------
#include "profile/profile.hpp"

// ---- PerfDMF-style storage --------------------------------------------
#include "perfdmf/repository.hpp"
#include "perfdmf/snapshot.hpp"

// ---- unified ingest (format sniffing front door) -----------------------
#include "io/bench_json.hpp"
#include "io/format.hpp"

// ---- analysis operations and fact builders -----------------------------
#include "analysis/clustering.hpp"
#include "analysis/diff.hpp"
#include "analysis/facts.hpp"
#include "analysis/operations.hpp"
#include "analysis/pca.hpp"
#include "analysis/pipeline.hpp"
#include "analysis/report.hpp"

// ---- rule engine + captured performance knowledge ----------------------
#include "rules/diagnosis.hpp"
#include "rules/engine.hpp"
#include "rules/parser.hpp"
#include "rules/profiler.hpp"
#include "rules/rulebases.hpp"

// ---- provenance / explanation layer ------------------------------------
#include "provenance/explanation.hpp"
#include "provenance/provenance.hpp"

// ---- PerfScript sessions ----------------------------------------------
#include "script/bindings.hpp"
#include "script/interpreter.hpp"

// ---- telemetry self-observation ---------------------------------------
#include "telemetry/export.hpp"
#include "telemetry/self_analysis.hpp"
#include "telemetry/telemetry.hpp"

// ---- analysis as a service (perfknow.api/1) ----------------------------
#include "server/client.hpp"
#include "server/server.hpp"
#include "server/wire.hpp"

// ---- the pkx command-line entry point ----------------------------------
#include "tools/pkx_cli.hpp"
