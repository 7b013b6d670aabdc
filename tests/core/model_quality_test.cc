// Quality check on the checked-in checkpoint: a fixed seeded character
// sequence through the serving engine must keep the mean next-character
// NLL recorded with libm's std::exp/std::tanh as the gate activations.
// The activation sequence (docs/exactness.md, "Activations") is within
// a few ULP of libm, so the NLL may move only in its last digits.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <deque>
#include <string>
#include <vector>

#include "core/model_io.h"
#include "core/stacked_engine.h"
#include "core/state_pruner.h"
#include "data/char_corpus.h"
#include "num/activations.h"
#include "num/matrix.h"

namespace zss::core {
namespace {

// Mean NLL (nats) of this sequence with libm activations, recorded
// before the activation sequence replaced them.
constexpr double kRecordedMeanNll = 2.419175214;

double mean_nll_of_checked_in_model() {
  LoadedModel model;
  std::string error;
  const std::string path =
      std::string(ZSS_SOURCE_DIR) + "/data/models/tiny_char_lm.zssm";
  if (!load_model(path, model, &error)) {
    ADD_FAILURE() << error;
    return NAN;
  }

  std::vector<const nn::LstmCell*> cells;
  for (const auto& c : model.cells) cells.push_back(c.get());
  std::deque<StatePruner> pruners;
  std::vector<const StatePruner*> pruner_ptrs;
  for (const float t : model.spec.thresholds) {
    pruners.emplace_back(PrunerConfig::fixed(t));
    pruner_ptrs.push_back(&pruners.back());
  }
  StackedEngine engine(cells, pruner_ptrs);
  engine.reserve(1);

  data::CharCorpusConfig corpus_cfg;
  corpus_cfg.train_chars = 1000;
  corpus_cfg.valid_chars = 1000;
  corpus_cfg.test_chars = 2000;
  corpus_cfg.seed = 1;
  const auto text = data::CharCorpus::generate(corpus_cfg).test();
  EXPECT_EQ(static_cast<num::Index>(model.spec.vocab),
            data::CharCorpus::kVocab);

  const num::Index dh = engine.hidden_dim();
  std::vector<num::Matrix> h(static_cast<std::size_t>(engine.layers()),
                             num::Matrix(1, dh));
  std::vector<num::Matrix> c = h;
  num::Matrix x;
  num::Matrix top;
  num::Matrix logits;
  std::vector<float> lsm(model.spec.vocab);
  double nll = 0.0;
  for (std::size_t t = 0; t + 1 < text.size(); ++t) {
    const num::Index id = text[t];
    if (model.embedding != nullptr) {
      model.embedding->forward(std::span<const num::Index>(&id, 1), x);
    } else {
      x = num::Matrix(1, engine.input_dim());
      x(0, id) = 1.0f;
    }
    engine.step(x, h, c, &top);
    model.classifier->forward(top, logits);
    num::log_softmax(logits.row(0), lsm);
    nll -= lsm[static_cast<std::size_t>(text[t + 1])];
  }
  return nll / static_cast<double>(text.size() - 1);
}

TEST(ModelQualityTest, CheckedInModelKeepsItsRecordedNll) {
  const double nll = mean_nll_of_checked_in_model();
  std::printf("mean NLL = %.9f nats\n", nll);
  // Far below the uniform ln(50) = 3.91 nats: the model is trained.
  EXPECT_LT(nll, 3.0);
  EXPECT_NEAR(nll, kRecordedMeanNll, 1e-4 * kRecordedMeanNll);
}

}  // namespace
}  // namespace zss::core
