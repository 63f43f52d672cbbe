// Symbolic regression: expression evaluation, complexity weighting,
// dimensional analysis, Pareto/Occam selection, and GP recovery of known
// laws (including the abs-form of the paper's contact law).

#include <gtest/gtest.h>

#include <cmath>

#include "sr/genetic.hpp"
#include "sr/report.hpp"

namespace gns::sr {
namespace {

// ---------- Expr ----------

TEST(Expr, EvalBasicOps) {
  // (x0 + 2) * x1
  ExprPtr e = Expr::binary(
      Op::Mul, Expr::binary(Op::Add, Expr::variable(0), Expr::constant(2.0)),
      Expr::variable(1));
  EXPECT_DOUBLE_EQ(e->eval({3.0, 4.0}), 20.0);
}

TEST(Expr, EvalUnaryOps) {
  EXPECT_DOUBLE_EQ(Expr::unary(Op::Abs, Expr::constant(-3))->eval({}), 3.0);
  EXPECT_DOUBLE_EQ(Expr::unary(Op::Neg, Expr::constant(3))->eval({}), -3.0);
  EXPECT_DOUBLE_EQ(Expr::unary(Op::Inv, Expr::constant(4))->eval({}), 0.25);
  EXPECT_NEAR(Expr::unary(Op::Exp, Expr::constant(1))->eval({}), M_E, 1e-12);
  EXPECT_NEAR(Expr::unary(Op::Log, Expr::constant(M_E))->eval({}), 1.0,
              1e-12);
}

TEST(Expr, ComparisonOpsAreIndicators) {
  ExprPtr gt = Expr::binary(Op::Gt, Expr::variable(0), Expr::constant(0.0));
  EXPECT_DOUBLE_EQ(gt->eval({1.0}), 1.0);
  EXPECT_DOUBLE_EQ(gt->eval({-1.0}), 0.0);
  ExprPtr lt = Expr::binary(Op::Lt, Expr::variable(0), Expr::constant(0.0));
  EXPECT_DOUBLE_EQ(lt->eval({-1.0}), 1.0);
}

TEST(Expr, DomainErrorsProduceNaN) {
  EXPECT_TRUE(std::isnan(
      Expr::binary(Op::Div, Expr::constant(1), Expr::constant(0))->eval({})));
  EXPECT_TRUE(std::isnan(Expr::unary(Op::Log, Expr::constant(-1))->eval({})));
  EXPECT_TRUE(std::isnan(Expr::unary(Op::Inv, Expr::constant(0))->eval({})));
  EXPECT_TRUE(std::isnan(
      Expr::binary(Op::Pow, Expr::constant(-2), Expr::constant(0.5))
          ->eval({})));
}

TEST(Expr, ComplexityWeightsExpensiveOpsTriple) {
  // abs(x) -> 1 (abs) + 1 (var) = 2; exp(x) -> 3 + 1 = 4.
  EXPECT_EQ(Expr::unary(Op::Abs, Expr::variable(0))->complexity(), 2);
  EXPECT_EQ(Expr::unary(Op::Exp, Expr::variable(0))->complexity(), 4);
  EXPECT_EQ(Expr::unary(Op::Log, Expr::variable(0))->complexity(), 4);
  // (x + 1) * 2: 3 ops/terminals of weight 1 + var + const = 5.
  ExprPtr e = Expr::binary(
      Op::Mul, Expr::binary(Op::Add, Expr::variable(0), Expr::constant(1)),
      Expr::constant(2));
  EXPECT_EQ(e->complexity(), 5);
}

TEST(Expr, CloneIsDeepAndEqual) {
  ExprPtr e = Expr::binary(Op::Add, Expr::variable(0), Expr::constant(7));
  ExprPtr c = e->clone();
  c->b->value = 99;
  EXPECT_DOUBLE_EQ(e->eval({1.0}), 8.0);
  EXPECT_DOUBLE_EQ(c->eval({1.0}), 100.0);
}

TEST(Expr, ToStringReadable) {
  ExprPtr e = Expr::binary(
      Op::Mul,
      Expr::binary(Op::Add, Expr::variable(0),
                   Expr::unary(Op::Abs, Expr::variable(1))),
      Expr::constant(100));
  EXPECT_EQ(e->to_string({"dx", "r1"}), "((dx + abs(r1)) * 100)");
}

TEST(Expr, RandomExprRespectsDepthAndVars) {
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    ExprPtr e = random_expr(paper_operator_set(), 3, 4, rng);
    EXPECT_LE(e->depth(), 4);
    std::vector<Expr*> nodes;
    e->collect(nodes);
    for (Expr* n : nodes) {
      if (n->op == Op::Var) {
        EXPECT_LT(n->var, 3);
      }
    }
  }
}

// ---------- Dimensional analysis ----------

const std::vector<Dim> kDims = {Dim{{1, 0}}, Dim{{1, 0}},
                                Dim{{0, 1}}};  // dx[L], r[L], m[M]
const Dim kForce = Dim{{1, 1}};  // k·length with k = force/length → M·L

TEST(Dims, AddRequiresMatchingUnits) {
  ExprPtr ok = Expr::binary(Op::Add, Expr::variable(0), Expr::variable(1));
  EXPECT_TRUE(ok->infer_dim(kDims).ok);
  ExprPtr bad = Expr::binary(Op::Add, Expr::variable(0), Expr::variable(2));
  EXPECT_FALSE(bad->infer_dim(kDims).ok);
}

TEST(Dims, ConstantsAbsorbAnything) {
  // (dx + 1.5) is fine: the constant adopts length units.
  ExprPtr e = Expr::binary(Op::Add, Expr::variable(0), Expr::constant(1.5));
  const auto r = e->infer_dim(kDims);
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.dim, (Dim{{1, 0}}));
}

TEST(Dims, MulAddsExponents) {
  ExprPtr e = Expr::binary(Op::Mul, Expr::variable(0), Expr::variable(2));
  const auto r = e->infer_dim(kDims);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(*r.dim, (std::pair<int, int>{1, 1}));
}

TEST(Dims, ExpRequiresDimensionless) {
  ExprPtr bad = Expr::unary(Op::Exp, Expr::variable(0));
  EXPECT_FALSE(bad->infer_dim(kDims).ok);
  ExprPtr ok = Expr::unary(
      Op::Exp, Expr::binary(Op::Div, Expr::variable(0), Expr::variable(1)));
  EXPECT_TRUE(ok->infer_dim(kDims).ok);
}

TEST(Dims, PowWithIntegerConstExponent) {
  ExprPtr sq =
      Expr::binary(Op::Pow, Expr::variable(0), Expr::constant(2.0));
  const auto r = sq->infer_dim(kDims);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(*r.dim, (std::pair<int, int>{2, 0}));
  ExprPtr frac =
      Expr::binary(Op::Pow, Expr::variable(0), Expr::constant(0.5));
  EXPECT_FALSE(frac->infer_dim(kDims).ok);
}

TEST(Dims, PaperLawPassesAgainstForceTarget) {
  // ((dx + abs(r1)*-1) * 100): length * wildcard-constant — unifies with
  // force (the constant absorbs the stiffness units), as Table 1 marks Y.
  ExprPtr law = Expr::binary(
      Op::Mul,
      Expr::binary(Op::Add, Expr::variable(0),
                   Expr::binary(Op::Mul,
                                Expr::unary(Op::Abs, Expr::variable(1)),
                                Expr::constant(-1.0))),
      Expr::constant(100.0));
  EXPECT_TRUE(law->dims_ok(kDims, kForce));
}

TEST(Dims, ComparisonYieldsDimensionless) {
  ExprPtr e = Expr::binary(Op::Gt, Expr::variable(0), Expr::variable(1));
  const auto r = e->infer_dim(kDims);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(*r.dim, (std::pair<int, int>{0, 0}));
}

// ---------- Fitness / Pareto ----------

SrProblem linear_problem(int n = 200) {
  // y = 3 x0 + 2
  SrProblem p;
  p.var_names = {"x"};
  p.var_dims = {Dim{{0, 0}}};
  p.target_dim = Dim{{0, 0}};
  Rng rng(5);
  for (int i = 0; i < n; ++i) {
    const double x = rng.uniform(-2, 2);
    p.X.push_back({x});
    p.y.push_back(3.0 * x + 2.0);
  }
  return p;
}

TEST(Fitness, ExactExpressionHasZeroError) {
  SrProblem p = linear_problem();
  ExprPtr e = Expr::binary(
      Op::Add, Expr::binary(Op::Mul, Expr::constant(3), Expr::variable(0)),
      Expr::constant(2));
  const FitnessResult f = evaluate(*e, p);
  EXPECT_TRUE(f.valid);
  EXPECT_NEAR(f.mae, 0.0, 1e-12);
  EXPECT_NEAR(f.mse, 0.0, 1e-12);
}

TEST(Fitness, NaNExpressionInvalid) {
  SrProblem p = linear_problem();
  ExprPtr e = Expr::unary(Op::Log, Expr::variable(0));  // x < 0 in data
  EXPECT_FALSE(evaluate(*e, p).valid);
}

TEST(Pareto, KeepsOnlyImprovingEntries) {
  ParetoFront front;
  ExprPtr small = Expr::constant(1.0);                 // complexity 1
  ExprPtr medium = Expr::binary(Op::Add, Expr::variable(0),
                                Expr::constant(1.0));  // complexity 3
  ExprPtr medium_bad = Expr::binary(Op::Sub, Expr::variable(0),
                                    Expr::constant(9.0));
  front.offer(*small, 1.0, 1.0, true);
  front.offer(*medium, 0.5, 0.25, true);
  front.offer(*medium_bad, 2.0, 4.0, true);  // worse at same complexity
  const auto entries = front.entries();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_DOUBLE_EQ(entries[1]->mae, 0.5);
}

TEST(Pareto, DominatedComplexityHidden) {
  ParetoFront front;
  ExprPtr small = Expr::constant(1.0);
  ExprPtr big = Expr::binary(Op::Add, Expr::variable(0), Expr::constant(1));
  front.offer(*small, 0.1, 0.01, true);
  front.offer(*big, 0.5, 0.25, true);  // more complex AND worse
  EXPECT_EQ(front.entries().size(), 1u);
}

TEST(Pareto, OccamPicksLargestLogDrop) {
  ParetoFront front;
  ExprPtr c1 = Expr::constant(1.0);                                   // c=1
  ExprPtr c3 = Expr::binary(Op::Add, Expr::variable(0),
                            Expr::constant(1));                       // c=3
  ExprPtr c5 = Expr::binary(
      Op::Mul, Expr::binary(Op::Add, Expr::variable(0), Expr::constant(1)),
      Expr::constant(2));                                             // c=5
  front.offer(*c1, 100.0, 1e4, true);
  front.offer(*c3, 50.0, 2.5e3, true);    // drop log(2)/2
  front.offer(*c5, 1e-6, 1e-12, true);    // huge drop: chosen
  const ParetoEntry* chosen = front.select_occam();
  ASSERT_NE(chosen, nullptr);
  EXPECT_EQ(chosen->complexity, 5);
}

TEST(Pareto, OccamRespectsDimensionalFilter) {
  // Front: c=1 (mae 100), c=3 (mae 1e-4, dims FAIL), c=5 (mae 0.9e-4, ok).
  // With the dims filter, only c=5 has a predecessor and passes: chosen.
  // Without it, c=3's log-drop dwarfs c=5's: c=3 wins.
  ParetoFront front;
  ExprPtr c1 = Expr::constant(1.0);
  ExprPtr c3 = Expr::binary(Op::Add, Expr::variable(0), Expr::constant(1));
  ExprPtr c5 = Expr::binary(
      Op::Mul, Expr::binary(Op::Add, Expr::variable(0), Expr::constant(1)),
      Expr::constant(2));
  front.offer(*c1, 100.0, 1e4, true);
  front.offer(*c3, 1e-4, 1e-8, false);
  front.offer(*c5, 0.9e-4, 0.8e-8, true);
  const ParetoEntry* chosen = front.select_occam(/*require_dims_ok=*/true);
  ASSERT_NE(chosen, nullptr);
  EXPECT_EQ(chosen->complexity, 5);
  const ParetoEntry* loose = front.select_occam(false);
  ASSERT_NE(loose, nullptr);
  EXPECT_EQ(loose->complexity, 3);
}

// ---------- End-to-end GP ----------

TEST(GeneticSr, RecoversLinearLaw) {
  SrProblem p = linear_problem();
  SrConfig config;
  config.population = 256;
  config.generations = 25;
  config.seed = 11;
  ParetoFront front = run_sr(p, config);
  const ParetoEntry* best = front.select_occam(false);
  ASSERT_NE(best, nullptr);
  EXPECT_LT(best->mae, 0.05) << best->expr->to_string(p.var_names);
}

TEST(GeneticSr, RecoversAbsContactLawShape) {
  // y = 100 |x − 0.1|: the structural skeleton of the paper's law.
  SrProblem p;
  p.var_names = {"dx"};
  p.var_dims = {Dim{{0, 0}}};
  p.target_dim = Dim{{0, 0}};
  Rng rng(13);
  for (int i = 0; i < 300; ++i) {
    const double x = rng.uniform(-0.3, 0.5);
    p.X.push_back({x});
    p.y.push_back(100.0 * std::abs(x - 0.1));
  }
  SrConfig config;
  config.population = 512;
  config.generations = 60;
  config.seed = 17;
  ParetoFront front = run_sr(p, config);
  const auto entries = front.entries();
  ASSERT_FALSE(entries.empty());
  // Mean |y| is ~18; demand the front reach a fit far below the
  // mean-predictor MAE (the Occam row is exercised by the Table 1 bench).
  EXPECT_LT(entries.back()->mae, 3.0)
      << entries.back()->expr->to_string(p.var_names);
}

TEST(GeneticSr, DeterministicForFixedSeed) {
  SrProblem p = linear_problem(60);
  SrConfig config;
  config.population = 64;
  config.generations = 5;
  config.constant_opt_iters = 0;
  ParetoFront a = run_sr(p, config);
  ParetoFront b = run_sr(p, config);
  const auto ea = a.entries();
  const auto eb = b.entries();
  ASSERT_EQ(ea.size(), eb.size());
  for (std::size_t i = 0; i < ea.size(); ++i) {
    EXPECT_DOUBLE_EQ(ea[i]->mae, eb[i]->mae);
  }
}

// ---------- Report ----------

TEST(Report, TableMarksChosenRow) {
  ParetoFront front;
  ExprPtr c1 = Expr::constant(5.0);
  ExprPtr c3 = Expr::binary(Op::Mul, Expr::variable(0), Expr::constant(3));
  front.offer(*c1, 10.0, 100.0, true);
  front.offer(*c3, 0.001, 1e-6, true);
  const auto rows = build_table(front, {"x"});
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_FALSE(rows[0].chosen);
  EXPECT_TRUE(rows[1].chosen);
  const std::string text = render_table(rows);
  EXPECT_NE(text.find("2*"), std::string::npos);
  EXPECT_NE(text.find("(x * 3)"), std::string::npos);
}

}  // namespace
}  // namespace gns::sr
