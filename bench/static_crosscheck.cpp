//===- bench/static_crosscheck.cpp - Static analyzer vs dynamic runs ----------===//
//
// Cross-validates the ahead-of-time static race analyzer (src/analysis)
// against the dynamic detector on the paper's Fig. 1-5 pages and on the
// synthetic corpus: for every page, the static analyzer predicts races
// from the HTML and scripts alone, a full dynamic session (with
// exploration) observes races, and the harness prints per-page precision
// and recall.
//
// On the figure pages the analyzer must predict every dynamically
// confirmed race (recall 1.0) - these are exactly the race shapes the
// must-HB approximation models. The deliberately imprecise
// false-positive page must stay unconfirmed (its only prediction is
// dynamically refuted), demonstrating the analyzer is not trivially
// precise. Corpus rows are informational: dynamically created scripts
// and richer DOM use are outside the static model, and the honest
// precision/recall numbers quantify that gap.
//
//===----------------------------------------------------------------------===//

#include "analysis/CrossCheck.h"
#include "sites/Corpus.h"

#include <cstdio>

using namespace wr;
using namespace wr::analysis;

namespace {

PageSpec toPageSpec(const sites::GeneratedSite &Site) {
  PageSpec Page;
  Page.Name = Site.Name;
  Page.EntryUrl = Site.IndexUrl;
  Page.Html = Site.Html;
  for (const sites::SiteResource &R : Site.Resources)
    Page.Resources.push_back(
        {R.Url, R.Body, (R.MinLatencyUs + R.MaxLatencyUs) / 2});
  return Page;
}

} // namespace

int main() {
  std::printf("== Static race prediction vs dynamic detection ==\n\n");

  int Failures = 0;
  std::vector<CrossCheckResult> FigResults;
  for (const PageSpec &Page : figurePages()) {
    CrossCheckResult R = crossCheck(Page);
    if (R.missedCount() != 0) {
      std::printf("FAIL: %s missed %zu dynamically confirmed race(s)\n",
                  R.Name.c_str(), R.missedCount());
      std::printf("%s\n", formatReport(R).c_str());
      ++Failures;
    }
    if (R.dynamicCount() == 0) {
      std::printf("FAIL: %s produced no dynamic races to validate "
                  "against\n",
                  R.Name.c_str());
      ++Failures;
    }
    FigResults.push_back(std::move(R));
  }

  // The flow-insensitivity false positive: predicted, never confirmed.
  CrossCheckResult Fp = crossCheck(falsePositivePage());
  if (Fp.predictedCount() == 0 || Fp.confirmedCount() != 0) {
    std::printf("FAIL: false-positive page expected >=1 refuted "
                "prediction, got %zu predicted / %zu confirmed\n",
                Fp.predictedCount(), Fp.confirmedCount());
    ++Failures;
  }
  FigResults.push_back(std::move(Fp));

  std::printf("-- figure pages --\n%s\n",
              formatTable(FigResults).c_str());

  const uint64_t Seed = 2012;
  std::vector<CrossCheckResult> SiteResults;
  for (const sites::GeneratedSite &Site :
       sites::buildFortune100Corpus(Seed)) {
    webracer::SessionOptions Opts;
    Opts.Browser.Seed = Seed;
    SiteResults.push_back(crossCheck(toPageSpec(Site), Opts));
  }
  std::printf("-- corpus (informational) --\n%s\n",
              formatTable(SiteResults).c_str());

  if (Failures) {
    std::printf("RESULT: %d FAILURE(S)\n", Failures);
    return 1;
  }
  std::printf("RESULT: OK (figure recall 1.0, false positive "
              "refuted)\n");
  return 0;
}
