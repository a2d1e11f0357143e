#ifndef LBTRUST_SENDLOG_SENDLOG_H_
#define LBTRUST_SENDLOG_SENDLOG_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "datalog/lint.h"
#include "net/cluster.h"
#include "util/status.h"

namespace lbtrust::sendlog {

/// SeNDlog front-end (§5.2): Secure Network Datalog programs —
///
///   At S:
///   s1: reachable(S,D) :- neighbor(S,D).
///   s2: reachable(Z,D)@Z :- neighbor(S,Z), W says reachable(S,D).
///
/// — compile to the core exactly as the paper's ls1/ls2 translation: the
/// context variable S becomes `me`, `p(...)@Z` heads become
/// says(me,Z,[| p(...). |]) exports, and `W says p(...)` body literals
/// become says(W,me,[| p(...). |]) imports.
///
/// Returns core program text (one clause per line) for a unit with a
/// variable context; units with constant contexts are returned per node by
/// CompileSendlogPerNode.
///
/// The lowered core is statically analyzed (says-context checks on: a
/// SeNDlog unit may only attribute speech to its own context) — lint
/// *errors* fail the compile with the diagnostic as the status message.
/// Pass `lint` to also receive the full report (warnings included).
util::Result<std::string> CompileSendlog(std::string_view sendlog_program,
                                         datalog::LintReport* lint = nullptr);

/// Loads a SeNDlog program onto every node of a cluster (variable-context
/// units go everywhere, constant-context units only to the named node).
/// Each node's lowered clauses are linted before any node's transaction
/// commits; lint errors reject the whole program untouched.
util::Status LoadSendlogOnCluster(net::SimCluster* cluster,
                                  std::string_view sendlog_program);

/// Compiles a SeNDlog surface program (variable contexts only) to core
/// clauses and issues the result as a signed credential from `runtime`'s
/// principal — SeNDlog policy fragments become portable, linkable evidence
/// (see src/cred). Returns the credential's content hash.
util::Result<std::string> IssueSendlogCredential(
    trust::TrustRuntime* runtime, std::string_view sendlog_program,
    std::vector<std::string> links = {}, int64_t not_before = 0,
    int64_t not_after = 0);

}  // namespace lbtrust::sendlog

#endif  // LBTRUST_SENDLOG_SENDLOG_H_
