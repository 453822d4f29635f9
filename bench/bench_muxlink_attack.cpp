// X6: MuxLink re-implementation sanity — attack quality on plain random
// D-MUX locking (the paper's premise: MuxLink *breaks* D-MUX, which is why
// AutoLock is needed).
//
// Expected shape: accuracy clearly above the 50% random-guess line on
// average, with precision above accuracy when thresholding is enabled
// (mirroring the MuxLink paper's accuracy/precision split). The structural
// surrogate should land between random and the GNN.
#include "bench/common.hpp"

#include "attacks/structural.hpp"
#include "util/stats.hpp"

int main(int argc, char** argv) {
  using namespace autolock;
  const auto args = benchx::parse_args(argc, argv);

  struct Case {
    netlist::gen::ProfileId profile;
    std::size_t key_bits;
    int lock_seeds;
  };
  std::vector<Case> cases;
  if (args.quick) {
    cases = {{netlist::gen::ProfileId::kC432, 16, 1}};
  } else {
    cases = {{netlist::gen::ProfileId::kC432, 32, 3},
             {netlist::gen::ProfileId::kC432, 64, 2},
             {netlist::gen::ProfileId::kC880, 32, 3},
             {netlist::gen::ProfileId::kC1355, 32, 2},
             {netlist::gen::ProfileId::kC1908, 32, 2}};
  }

  util::Table table({"circuit", "K", "runs", "GNN acc (mean)",
                     "GNN precision", "decided", "structural acc",
                     "random guess"});
  for (const auto& test_case : cases) {
    const auto original = netlist::gen::make_profile(test_case.profile, 1);
    util::OnlineStats gnn_acc, gnn_prec, gnn_decided, str_acc;
    for (int seed = 0; seed < test_case.lock_seeds; ++seed) {
      const auto design =
          lock::dmux_lock(original, test_case.key_bits, 100 + seed);
      attack::MuxLinkConfig config = benchx::muxlink_thorough();
      config.seed = 0xACC + seed;
      const auto gnn_score = attack::MuxLinkAttack(config).run(design);
      gnn_acc.add(gnn_score.accuracy);
      gnn_prec.add(gnn_score.precision);
      gnn_decided.add(gnn_score.decided_fraction);
      str_acc.add(attack::StructuralLinkPredictor().run(design).accuracy);
    }
    table.add_row({original.name(), std::to_string(test_case.key_bits),
                   std::to_string(test_case.lock_seeds),
                   util::fmt_pct(gnn_acc.mean()),
                   util::fmt_pct(gnn_prec.mean()),
                   util::fmt_pct(gnn_decided.mean()),
                   util::fmt_pct(str_acc.mean()), "50.0%"});
  }
  benchx::emit(table, args,
               "X6 — MuxLink (re-impl.) vs plain D-MUX: key recovery quality");
  return 0;
}
