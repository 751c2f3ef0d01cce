//===- detect/Filters.cpp - Race report post-processing filters -------------===//

#include "detect/Filters.h"

using namespace wr;
using namespace wr::detect;

bool wr::detect::involvesFormField(const Race &R) {
  auto FormOrigin = [](AccessOrigin O) {
    return O == AccessOrigin::FormFieldRead ||
           O == AccessOrigin::FormFieldWrite ||
           O == AccessOrigin::UserInput;
  };
  return FormOrigin(R.First.Origin) || FormOrigin(R.Second.Origin);
}

std::vector<Race>
wr::detect::filterFormRaces(const std::vector<Race> &Races,
                            obs::FilterAttrition *Attrition) {
  std::vector<Race> Kept;
  for (const Race &R : Races) {
    if (R.Kind != RaceKind::Variable) {
      Kept.push_back(R);
      continue;
    }
    if (!involvesFormField(R)) {
      if (Attrition)
        ++Attrition->NotFormField;
      continue;
    }
    // Refinement: a write preceded by a read of the same field in the
    // same operation usually checks that the user has not modified the
    // field, making the race harmless.
    if (R.WriteHadPriorReadInOp) {
      if (Attrition)
        ++Attrition->PriorReadGuard;
      continue;
    }
    Kept.push_back(R);
  }
  return Kept;
}

std::vector<Race>
wr::detect::filterSingleDispatch(const std::vector<Race> &Races,
                                 const DispatchCountFn &Counts,
                                 obs::FilterAttrition *Attrition) {
  std::vector<Race> Kept;
  for (const Race &R : Races) {
    if (R.Kind != RaceKind::EventDispatch) {
      Kept.push_back(R);
      continue;
    }
    const auto *Loc = std::get_if<EventHandlerLoc>(&R.Loc);
    if (!Loc)
      continue;
    if (Counts && Counts(*Loc) > 1) {
      // Multi-dispatch events: missing one is less serious.
      if (Attrition)
        ++Attrition->MultiDispatch;
      continue;
    }
    Kept.push_back(R);
  }
  return Kept;
}

std::vector<Race>
wr::detect::applyPaperFilters(const std::vector<Race> &Races,
                              const DispatchCountFn &Counts,
                              obs::FilterAttrition *Attrition) {
  if (Attrition)
    Attrition->Input += Races.size();
  std::vector<Race> Kept =
      filterSingleDispatch(filterFormRaces(Races, Attrition), Counts,
                           Attrition);
  if (Attrition)
    Attrition->Kept += Kept.size();
  return Kept;
}
