//===- analysis/StaticHb.h - Static must-happens-before graph ---*- C++ -*-===//
//
// Part of the WebRacer reproduction. MIT licensed; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The static counterpart of the dynamic happens-before graph: a DAG of
/// *effect sources*, each an operation the page will (or may) run, with
/// edges only where the paper's HB rules guarantee an order from document
/// structure alone:
///
///  * the synchronous parse/execute chain of each document, in parse
///    order (rules 1a-1c, 2, 3);
///  * deferred scripts after parsing, chained in document order
///    (rules 4, 5);
///  * a frame's chain after the parse of its <iframe> (rule 6), and the
///    frame's load dispatch after the frame's chain (rule 7);
///  * in-tag handler content attributes ordered before their dispatch
///    (rule 8), because the install happens at parse(E);
///  * timer and XHR callbacks after their registering source
///    (rules 10, 16, 17).
///
/// Everything else - async scripts, user-driven dispatches, user input,
/// two sibling frames - stays unordered, which is exactly where the
/// paper's races live. This is a *must* approximation: an edge means the
/// order always holds; the absence of an edge means some schedule may
/// reverse the pair.
///
//===----------------------------------------------------------------------===//

#ifndef WEBRACER_ANALYSIS_STATICHB_H
#define WEBRACER_ANALYSIS_STATICHB_H

#include "analysis/EffectSet.h"

#include <cstdint>
#include <string>
#include <vector>

namespace wr::analysis {

/// What kind of operation an effect source stands for.
enum class SourceKind : uint8_t {
  Parse,            ///< parse(E) of one element (insertion writes).
  SyncScript,       ///< Inline or synchronous external script.
  DeferScript,      ///< Deferred external script.
  AsyncScript,      ///< Asynchronous external script.
  TimerCallback,    ///< setTimeout body.
  IntervalCallback, ///< setInterval body.
  XhrCallback,      ///< readystatechange handler after send().
  EventDispatch,    ///< An event dispatch plus its handler bodies.
  UserInput,        ///< Simulated user typing into a form field.
};

const char *toString(SourceKind Kind);

/// One static operation with its may-effects.
struct EffectSource {
  uint32_t Id = 0;
  SourceKind Kind = SourceKind::Parse;
  std::string Label; ///< Human-readable, e.g. `script hint.js`.
  EffectSet Effects;
};

/// The DAG of effect sources. Queries are by reachability: A is ordered
/// with B iff one reaches the other along must-HB edges.
///
/// Queries answer from a transitive-closure bitset (one row of reachable
/// sources per source) that the first query after a mutation builds by
/// one DFS per source; addSource/addEdge invalidate it. Source ids are
/// not a topological order (a dispatch source created early gains
/// in-edges from later anchors), so the rows cannot be filled by one
/// sweep over ids. Because that first query fills a cache, concurrent
/// queries on one graph need external synchronization.
class StaticHbGraph {
public:
  /// Sentinel for "no source".
  static constexpr uint32_t InvalidSource = ~0u;

  /// Adds a source and returns its id.
  uint32_t addSource(SourceKind Kind, std::string Label);

  EffectSource &source(uint32_t Id) { return Sources[Id]; }
  const EffectSource &source(uint32_t Id) const { return Sources[Id]; }
  const std::vector<EffectSource> &sources() const { return Sources; }

  /// Adds the must-HB edge From -> To. Ignores invalid endpoints so
  /// callers can pass optional anchors unconditionally.
  void addEdge(uint32_t From, uint32_t To);

  size_t numEdges() const { return Edges; }

  /// True if \p From reaches \p To along edges (reflexive). False if
  /// either is InvalidSource.
  bool reaches(uint32_t From, uint32_t To) const;

  /// True if the two sources are ordered either way - the static
  /// equivalent of NOT Can-Happen-Concurrently.
  bool ordered(uint32_t A, uint32_t B) const {
    return reaches(A, B) || reaches(B, A);
  }

  /// Renders the graph (sources and edges) for debugging and the CLI's
  /// verbose mode.
  std::string toString() const;

private:
  /// Fills Closure and ClosureWords from Succ.
  void buildClosure() const;

  std::vector<EffectSource> Sources;
  std::vector<std::vector<uint32_t>> Succ;
  size_t Edges = 0;
  /// Row-major reachability bitset, ClosureWords 64-bit words per source
  /// (bit To of row From set iff reaches(From, To)). Empty when stale.
  mutable std::vector<uint64_t> Closure;
  mutable size_t ClosureWords = 0;
};

} // namespace wr::analysis

#endif // WEBRACER_ANALYSIS_STATICHB_H
