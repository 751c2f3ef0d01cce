//===- detect/Filters.h - Race report post-processing filters ---*- C++ -*-===//
//
// Part of the WebRacer reproduction. MIT licensed; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The post-processing filters of the paper's Section 5.3, used in the
/// evaluation to focus attention on races likely to be harmful:
///
///  * Form-race filter: keeps only variable races that involve the value
///    of an HTML form field, and additionally drops races where the
///    writing operation read the field before writing it (such reads
///    typically guard against clobbering user input).
///
///  * Single-dispatch filter: keeps only event-dispatch races on events
///    that dispatched at most once in the run (e.g. load); a handler
///    missing one of many clicks is rarely serious, a handler missing the
///    only load event never runs at all.
///
/// HTML and function races pass through both filters unchanged (Table 2
/// reports them alongside the filtered variable/event-dispatch counts).
///
//===----------------------------------------------------------------------===//

#ifndef WEBRACER_DETECT_FILTERS_H
#define WEBRACER_DETECT_FILTERS_H

#include "detect/RaceDetector.h"
#include "obs/RunStats.h"

#include <functional>
#include <vector>

namespace wr::detect {

/// Returns the count of dispatches observed for the event-handler
/// location's (target, event) pair during the run.
using DispatchCountFn = std::function<int(const EventHandlerLoc &)>;

/// Applies the form-race filter to \p Races (variable races only).
/// \p Attrition, when non-null, accumulates the per-reason drops (the
/// Table 2 attrition columns; counts add up across calls).
std::vector<Race> filterFormRaces(const std::vector<Race> &Races,
                                  obs::FilterAttrition *Attrition = nullptr);

/// Applies the single-dispatch filter (event-dispatch races only).
std::vector<Race>
filterSingleDispatch(const std::vector<Race> &Races,
                     const DispatchCountFn &Counts,
                     obs::FilterAttrition *Attrition = nullptr);

/// Applies both Sec. 5.3 filters. With \p Attrition non-null, fills
/// Input/Kept and the per-reason drop counts for the whole pipeline.
std::vector<Race> applyPaperFilters(const std::vector<Race> &Races,
                                    const DispatchCountFn &Counts,
                                    obs::FilterAttrition *Attrition = nullptr);

/// True if \p R involves a form-field value (the form filter predicate).
bool involvesFormField(const Race &R);

} // namespace wr::detect

#endif // WEBRACER_DETECT_FILTERS_H
