#pragma once

/// \file genetic.hpp
/// Genetic-programming symbolic regression (§6): evolve expression trees
/// minimizing MAE over a labelled dataset, maintain a complexity-Pareto
/// hall of fame, and pick the reported law by the paper's Occam criterion
/// — the expression maximizing the fractional drop in log(MAE) per unit of
/// added complexity, −Δlog(MAE)/Δc, among dimensionally admissible models.

#include <vector>

#include "sr/expr.hpp"

namespace gns::sr {

/// Regression problem: X[i] are the variable values of sample i.
struct SrProblem {
  std::vector<std::string> var_names;
  std::vector<Dim> var_dims;   ///< per-variable physical dimensions
  Dim target_dim;              ///< dimension the law should carry
  std::vector<std::vector<double>> X;
  std::vector<double> y;

  [[nodiscard]] int num_vars() const {
    return static_cast<int>(var_names.size());
  }
  [[nodiscard]] int num_samples() const { return static_cast<int>(y.size()); }
};

struct SrConfig {
  int population = 768;
  int generations = 80;
  int tournament = 5;
  double crossover_prob = 0.65;
  double mutation_prob = 0.3;
  int max_depth = 6;
  double parsimony = 1e-3;    ///< selection penalty per complexity unit
  double const_min = -5.0;
  double const_max = 5.0;
  int constant_opt_iters = 25;  ///< hill-climb steps on hall-of-fame consts
  std::uint64_t seed = 2024;
};

/// One Pareto-front member.
struct ParetoEntry {
  ExprPtr expr;
  double mae = 0.0;
  double mse = 0.0;
  int complexity = 0;
  bool dims_ok = false;
};

/// Complexity-indexed hall of fame: for each complexity value, the lowest-
/// MAE expression seen, kept only where it improves on all simpler
/// entries (a proper Pareto front).
class ParetoFront {
 public:
  /// Offers a candidate; keeps it if it beats the incumbent at its
  /// complexity.
  void offer(const Expr& expr, double mae, double mse, bool dims_ok);

  /// Front sorted by complexity, strictly improving in MAE.
  [[nodiscard]] std::vector<const ParetoEntry*> entries() const;

  /// Paper's model selection: among entries (optionally restricted to
  /// dimensionally-valid ones), maximize −Δlog(MAE)/Δc versus the previous
  /// front entry. Returns nullptr on an empty front.
  [[nodiscard]] const ParetoEntry* select_occam(
      bool require_dims_ok = true) const;

 private:
  // complexity -> best entry
  std::vector<ParetoEntry> slots_;
};

/// MAE/MSE of an expression over a problem; NaN-producing expressions get
/// +inf. Predictions run parallel over samples for large datasets; the
/// sums are serial in sample order, so the result is the same at any
/// worker count.
struct FitnessResult {
  double mae = 0.0;
  double mse = 0.0;
  bool valid = false;
};
[[nodiscard]] FitnessResult evaluate(const Expr& expr,
                                     const SrProblem& problem);

/// Linear-scaling fitness (Keijzer 2003): fits the optimal affine wrapper
/// y ≈ a·ψ(x) + b in closed form (least squares) and scores the wrapped
/// prediction. This lets the evolution discover *shape* while constants of
/// any magnitude (e.g. the paper's k_n = 100) come for free.
struct ScaledFitness {
  double mae = 0.0;
  double mse = 0.0;
  double scale = 1.0;   ///< a
  double offset = 0.0;  ///< b
  bool valid = false;
};
[[nodiscard]] ScaledFitness evaluate_scaled(const Expr& expr,
                                            const SrProblem& problem);

/// expr wrapped as (expr * a + b), with near-identity wrappers elided.
[[nodiscard]] ExprPtr apply_scaling(const Expr& expr, double scale,
                                    double offset);

/// Runs the evolution and returns the final Pareto front.
[[nodiscard]] ParetoFront run_sr(const SrProblem& problem,
                                 const SrConfig& config);

/// The paper's default operator set (§6) plus abs.
[[nodiscard]] std::vector<Op> paper_operator_set();

}  // namespace gns::sr
