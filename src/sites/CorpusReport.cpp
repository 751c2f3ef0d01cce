//===- sites/CorpusReport.cpp - Machine-readable corpus reports --------------===//

#include "sites/CorpusReport.h"

#include <algorithm>
#include <unordered_map>

using namespace wr;
using namespace wr::sites;

static obs::Json distributionToJson(const CorpusStats::Distribution &D) {
  obs::Json O = obs::Json::object();
  O.set("mean", D.Mean);
  O.set("median", D.Median);
  O.set("max", static_cast<uint64_t>(D.Max));
  return O;
}

obs::Json wr::sites::buildCorpusReport(const std::string &Name,
                                       const CorpusStats &Stats,
                                       bool IncludeTiming) {
  obs::Json Doc = obs::makeReportEnvelope("corpus", Name);

  obs::Json Sites = obs::Json::array();
  for (const SiteRunStats &S : Stats.Sites) {
    obs::Json Row = obs::Json::object();
    Row.set("name", S.Name);
    Row.set("static_precision", S.Static.toJson());
    Row.set("stats", S.Stats.toJson());
    Sites.push(std::move(Row));
  }
  Doc.set("sites", std::move(Sites));

  Doc.set("aggregate", Stats.aggregate().toJson());

  // Table 1: raw-count distributions across sites, per kind and total.
  obs::Json Distributions = obs::Json::object();
  Distributions.set(
      "html", distributionToJson(
                  Stats.rawDistribution(detect::RaceKind::Html)));
  Distributions.set(
      "function", distributionToJson(
                      Stats.rawDistribution(detect::RaceKind::Function)));
  Distributions.set(
      "variable", distributionToJson(
                      Stats.rawDistribution(detect::RaceKind::Variable)));
  Distributions.set("event_dispatch",
                    distributionToJson(Stats.rawDistribution(
                        detect::RaceKind::EventDispatch)));
  Distributions.set("all",
                    distributionToJson(Stats.rawTotalDistribution()));
  Doc.set("raw_distributions", std::move(Distributions));

  Doc.set("filtered_totals", Stats.filteredTotals().toJson());

  // Static-analyzer cross-check, per guard class (the precision
  // accounting; diff_baseline.py compares every leaf).
  Doc.set("static_precision", Stats.staticTotals().toJson());

  // Triage: corpus-wide dedup of the kept races by structural signature.
  // Deterministic for any job count - sites are walked in corpus order
  // and the rank is (occurrences desc, signature text asc).
  {
    struct Group {
      const triage::RaceSignature *Sig = nullptr;
      std::string Text;
      uint64_t Occurrences = 0;
      uint64_t SiteCount = 0;
      std::string FirstSite;
    };
    std::vector<Group> Groups;
    std::unordered_map<std::string, size_t> Index;
    for (const SiteRunStats &S : Stats.Sites) {
      std::vector<size_t> TouchedThisSite;
      for (const triage::RaceSignature &Sig : S.Signatures) {
        std::string Text = Sig.text();
        auto [It, Inserted] = Index.try_emplace(Text, Groups.size());
        if (Inserted) {
          Groups.push_back(
              {&Sig, std::move(Text), 0, 0, S.Name});
        }
        Group &G = Groups[It->second];
        ++G.Occurrences;
        if (std::find(TouchedThisSite.begin(), TouchedThisSite.end(),
                      It->second) == TouchedThisSite.end()) {
          TouchedThisSite.push_back(It->second);
          ++G.SiteCount;
        }
      }
    }
    std::stable_sort(Groups.begin(), Groups.end(),
                     [](const Group &A, const Group &B) {
                       if (A.Occurrences != B.Occurrences)
                         return A.Occurrences > B.Occurrences;
                       return A.Text < B.Text;
                     });
    uint64_t Occurrences = 0;
    obs::Json GroupArr = obs::Json::array();
    for (const Group &G : Groups) {
      Occurrences += G.Occurrences;
      obs::Json Row = obs::Json::object();
      Row.set("id", G.Sig->id());
      Row.set("kind", G.Sig->Kind);
      Row.set("location", G.Sig->Location);
      Row.set("access", G.Sig->Access);
      Row.set("context", G.Sig->Context);
      Row.set("occurrences", G.Occurrences);
      Row.set("sites", G.SiteCount);
      Row.set("first_site", G.FirstSite);
      GroupArr.push(std::move(Row));
    }
    obs::Json Triage = obs::Json::object();
    Triage.set("signatures", static_cast<uint64_t>(Groups.size()));
    Triage.set("occurrences", Occurrences);
    Triage.set("groups", std::move(GroupArr));
    Doc.set("triage", std::move(Triage));
  }

  if (IncludeTiming) {
    obs::Json Timing = obs::Json::object();
    Timing.set("phases_wall_ms", Stats.aggregate().Phases.wallJson());
    Doc.set("timing", std::move(Timing));
  }
  return Doc;
}
