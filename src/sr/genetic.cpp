#include "sr/genetic.hpp"

#include "exec/parallel_for.hpp"
#include "sr/simplify.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace gns::sr {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

/// expr evaluated on every sample, parallel over samples for large
/// datasets. Each sample writes its own slot, so callers that reduce the
/// buffer serially in index order get the same bits at any worker count.
std::vector<double> predict(const Expr& expr, const SrProblem& problem) {
  const int n = problem.num_samples();
  std::vector<double> pred(n);
  exec::parallel_for(n, n > 4096, [&](std::int64_t i) {
    pred[i] = expr.eval(problem.X[i]);
  });
  return pred;
}
}  // namespace

std::vector<Op> paper_operator_set() {
  return {Op::Add, Op::Sub, Op::Mul, Op::Div, Op::Gt,  Op::Lt,
          Op::Pow, Op::Exp, Op::Inv, Op::Log, Op::Abs, Op::Neg};
}

FitnessResult evaluate(const Expr& expr, const SrProblem& problem) {
  const int n = problem.num_samples();
  GNS_CHECK(n > 0);
  const std::vector<double> pred = predict(expr, problem);
  double abs_sum = 0.0, sq_sum = 0.0;
  for (int i = 0; i < n; ++i) {
    if (!std::isfinite(pred[i])) return {kInf, kInf, false};
    const double d = pred[i] - problem.y[i];
    abs_sum += std::abs(d);
    sq_sum += d * d;
  }
  return {abs_sum / n, sq_sum / n, true};
}

ScaledFitness evaluate_scaled(const Expr& expr, const SrProblem& problem) {
  const int n = problem.num_samples();
  GNS_CHECK(n > 0);
  const std::vector<double> pred = predict(expr, problem);
  ScaledFitness out;
  for (const double p : pred)
    if (!std::isfinite(p)) return out;
  // Least-squares a, b for y ≈ a·pred + b.
  double mp = 0.0, my = 0.0;
  for (int i = 0; i < n; ++i) {
    mp += pred[i];
    my += problem.y[i];
  }
  mp /= n;
  my /= n;
  double spp = 0.0, spy = 0.0;
  for (int i = 0; i < n; ++i) {
    spp += (pred[i] - mp) * (pred[i] - mp);
    spy += (pred[i] - mp) * (problem.y[i] - my);
  }
  out.scale = (spp > 1e-12) ? spy / spp : 0.0;
  out.offset = my - out.scale * mp;
  double abs_sum = 0.0, sq_sum = 0.0;
  for (int i = 0; i < n; ++i) {
    const double d = out.scale * pred[i] + out.offset - problem.y[i];
    abs_sum += std::abs(d);
    sq_sum += d * d;
  }
  out.mae = abs_sum / n;
  out.mse = sq_sum / n;
  out.valid = std::isfinite(out.mae);
  return out;
}

ExprPtr apply_scaling(const Expr& expr, double scale, double offset) {
  ExprPtr wrapped = expr.clone();
  if (std::abs(scale - 1.0) > 1e-10) {
    wrapped = Expr::binary(Op::Mul, std::move(wrapped),
                           Expr::constant(scale));
  }
  if (std::abs(offset) > 1e-10) {
    wrapped = Expr::binary(Op::Add, std::move(wrapped),
                           Expr::constant(offset));
  }
  return wrapped;
}

void ParetoFront::offer(const Expr& expr, double mae, double mse,
                        bool dims_ok) {
  if (!std::isfinite(mae)) return;
  const int c = expr.complexity();
  if (c >= static_cast<int>(slots_.size())) slots_.resize(c + 1);
  ParetoEntry& slot = slots_[c];
  if (!slot.expr || mae < slot.mae) {
    slot.expr = expr.clone();
    slot.mae = mae;
    slot.mse = mse;
    slot.complexity = c;
    slot.dims_ok = dims_ok;
  }
}

std::vector<const ParetoEntry*> ParetoFront::entries() const {
  std::vector<const ParetoEntry*> out;
  double best = kInf;
  for (const auto& slot : slots_) {
    if (slot.expr && slot.mae < best) {
      out.push_back(&slot);
      best = slot.mae;
    }
  }
  return out;
}

const ParetoEntry* ParetoFront::select_occam(bool require_dims_ok) const {
  const auto front = entries();
  const ParetoEntry* best = nullptr;
  double best_score = -kInf;
  const ParetoEntry* prev = nullptr;
  for (const ParetoEntry* e : front) {
    if (prev != nullptr && (!require_dims_ok || e->dims_ok)) {
      const double dc = e->complexity - prev->complexity;
      if (dc > 0.0) {
        const double floor_mae = std::max(e->mae, 1e-12);
        const double prev_mae = std::max(prev->mae, 1e-12);
        const double score = -(std::log(floor_mae) - std::log(prev_mae)) / dc;
        if (score > best_score) {
          best_score = score;
          best = e;
        }
      }
    }
    prev = e;
  }
  // Degenerate fronts (single entry): return the simplest valid model.
  if (best == nullptr) {
    for (const ParetoEntry* e : front) {
      if (!require_dims_ok || e->dims_ok) return e;
    }
    return front.empty() ? nullptr : front.front();
  }
  return best;
}

namespace {

/// Tournament pick: lowest parsimony-adjusted MAE among `k` random members.
int tournament_pick(const std::vector<double>& adjusted, int k, Rng& rng) {
  int best = static_cast<int>(rng.uniform_index(adjusted.size()));
  for (int i = 1; i < k; ++i) {
    const int challenger =
        static_cast<int>(rng.uniform_index(adjusted.size()));
    if (adjusted[challenger] < adjusted[best]) best = challenger;
  }
  return best;
}

/// Swap a random subtree of `dst` with a clone of a random subtree of
/// `src`.
void crossover(Expr& dst, const Expr& src, Rng& rng) {
  std::vector<Expr*> dst_nodes;
  const_cast<Expr&>(dst).collect(dst_nodes);
  std::vector<Expr*> src_nodes;
  const_cast<Expr&>(src).collect(src_nodes);
  Expr* target = dst_nodes[rng.uniform_index(dst_nodes.size())];
  const Expr* donor = src_nodes[rng.uniform_index(src_nodes.size())];
  ExprPtr copy = donor->clone();
  *target = std::move(*copy);
}

void mutate(Expr& tree, const std::vector<Op>& operators, int num_vars,
            int max_depth, Rng& rng, double const_min, double const_max) {
  std::vector<Expr*> nodes;
  tree.collect(nodes);
  Expr* target = nodes[rng.uniform_index(nodes.size())];
  const double roll = rng.uniform();
  if (roll < 0.35 && target->op == Op::Const) {
    // Constant jitter (multiplicative + additive so both scales move).
    target->value = target->value * (1.0 + 0.3 * rng.gauss()) +
                    0.1 * rng.gauss();
  } else if (roll < 0.6) {
    // Point mutation: swap operator with one of equal arity.
    std::vector<Op> same;
    for (Op op : operators)
      if (arity(op) == arity(target->op) && arity(op) > 0) same.push_back(op);
    if (!same.empty() && arity(target->op) > 0) {
      target->op = same[rng.uniform_index(same.size())];
    } else if (target->op == Op::Var && num_vars > 1) {
      target->var = static_cast<int>(rng.uniform_index(num_vars));
    } else if (target->op == Op::Const) {
      target->value = rng.uniform(const_min, const_max);
    }
  } else {
    // Subtree replacement.
    ExprPtr fresh = random_expr(operators, num_vars,
                                std::max(2, max_depth / 2), rng, const_min,
                                const_max);
    *target = std::move(*fresh);
  }
}

/// Random hill-climb on the constants of a clone (under linear scaling);
/// returns the improved, re-wrapped clone, or nullptr when no improvement
/// was found.
ExprPtr optimize_constants(const Expr& expr, const SrProblem& problem,
                           int iters, Rng& rng) {
  ExprPtr best = expr.clone();
  ScaledFitness best_fit = evaluate_scaled(*best, problem);
  if (!best_fit.valid) return nullptr;
  bool improved = false;
  for (int i = 0; i < iters; ++i) {
    ExprPtr trial = best->clone();
    std::vector<Expr*> nodes;
    trial->collect(nodes);
    std::vector<Expr*> consts;
    for (Expr* n : nodes)
      if (n->op == Op::Const) consts.push_back(n);
    if (consts.empty()) break;
    Expr* c = consts[rng.uniform_index(consts.size())];
    const double scale = std::pow(10.0, rng.uniform(-3.0, 0.5));
    c->value += scale * rng.gauss();
    const ScaledFitness fit = evaluate_scaled(*trial, problem);
    if (fit.valid && fit.mae < best_fit.mae) {
      best = std::move(trial);
      best_fit = fit;
      improved = true;
    }
  }
  if (!improved) return nullptr;
  return simplify(*apply_scaling(*best, best_fit.scale, best_fit.offset));
}

}  // namespace

ParetoFront run_sr(const SrProblem& problem, const SrConfig& config) {
  GNS_CHECK_MSG(problem.num_samples() > 0, "SR problem has no samples");
  GNS_CHECK_MSG(problem.num_vars() > 0, "SR problem has no variables");
  GNS_CHECK_MSG(static_cast<int>(problem.var_dims.size()) ==
                    problem.num_vars(),
                "var_dims size mismatch");
  for (const auto& row : problem.X)
    GNS_CHECK_MSG(static_cast<int>(row.size()) == problem.num_vars(),
                  "sample width mismatch");

  const std::vector<Op> operators = paper_operator_set();
  Rng rng(config.seed);
  ParetoFront front;

  std::vector<ExprPtr> population;
  population.reserve(config.population);
  // Seed a quarter of the population with affine templates c0·x_i + c1 —
  // cheap scaffolding the crossover operator can build on (ramped init).
  for (int i = 0; i < config.population / 4; ++i) {
    const int v = static_cast<int>(rng.uniform_index(problem.num_vars()));
    population.push_back(Expr::binary(
        Op::Add,
        Expr::binary(Op::Mul,
                     Expr::constant(rng.uniform(config.const_min,
                                                config.const_max)),
                     Expr::variable(v)),
        Expr::constant(rng.uniform(config.const_min, config.const_max))));
  }
  while (static_cast<int>(population.size()) < config.population) {
    population.push_back(random_expr(operators, problem.num_vars(),
                                     config.max_depth, rng, config.const_min,
                                     config.const_max));
  }

  std::vector<double> mae(config.population, kInf);
  std::vector<double> adjusted(config.population, kInf);

  for (int gen = 0; gen <= config.generations; ++gen) {
    // Fitness pass (parallel over individuals — each eval is independent
    // and writes only its own slots; the nested per-sample loop runs
    // serially inside).
    std::vector<ScaledFitness> fits(config.population);
    exec::parallel_for(config.population, true, [&](std::int64_t i) {
      fits[i] = evaluate_scaled(*population[i], problem);
      mae[i] = fits[i].valid ? fits[i].mae : kInf;
      adjusted[i] =
          mae[i] + config.parsimony * population[i]->complexity();
    });
    // Offer the affine-wrapped champions to the Pareto front (serial:
    // the front is shared state).
    for (int i = 0; i < config.population; ++i) {
      if (!std::isfinite(mae[i])) continue;
      ExprPtr wrapped = simplify(*apply_scaling(
          *population[i], fits[i].scale, fits[i].offset));
      front.offer(*wrapped, fits[i].mae, fits[i].mse,
                  wrapped->dims_ok(problem.var_dims, problem.target_dim));
    }
    // Periodic constant polish on the Pareto champions: GP finds shapes
    // quickly but refines constants slowly; local hill-climbing closes
    // that gap.
    if (config.constant_opt_iters > 0 && gen % 5 == 4) {
      for (const ParetoEntry* e : front.entries()) {
        ExprPtr polished = optimize_constants(
            *e->expr, problem, config.constant_opt_iters, rng);
        if (polished) {
          const FitnessResult fit = evaluate(*polished, problem);
          if (fit.valid) {
            front.offer(*polished, fit.mae, fit.mse,
                        polished->dims_ok(problem.var_dims,
                                          problem.target_dim));
          }
        }
      }
    }

    if (gen == config.generations) break;

    // Next generation: elitism + tournament reproduction.
    std::vector<ExprPtr> next;
    next.reserve(config.population);
    // Keep the current Pareto champions alive.
    for (const ParetoEntry* e : front.entries()) {
      if (static_cast<int>(next.size()) >= config.population / 8) break;
      next.push_back(e->expr->clone());
    }
    while (static_cast<int>(next.size()) < config.population) {
      const int p1 = tournament_pick(adjusted, config.tournament, rng);
      ExprPtr child = population[p1]->clone();
      if (rng.uniform() < config.crossover_prob) {
        const int p2 = tournament_pick(adjusted, config.tournament, rng);
        crossover(*child, *population[p2], rng);
      }
      if (rng.uniform() < config.mutation_prob) {
        mutate(*child, operators, problem.num_vars(), config.max_depth, rng,
               config.const_min, config.const_max);
      }
      if (child->depth() > config.max_depth + 2) {
        child = random_expr(operators, problem.num_vars(), config.max_depth,
                            rng, config.const_min, config.const_max);
      }
      next.push_back(std::move(child));
    }
    population = std::move(next);
  }

  // Polish the front: constant optimization on each champion.
  if (config.constant_opt_iters > 0) {
    for (const ParetoEntry* e : front.entries()) {
      ExprPtr polished = optimize_constants(
          *e->expr, problem, 4 * config.constant_opt_iters, rng);
      if (polished) {
        const FitnessResult fit = evaluate(*polished, problem);
        if (fit.valid) {
          front.offer(*polished, fit.mae, fit.mse,
                      polished->dims_ok(problem.var_dims,
                                        problem.target_dim));
        }
      }
    }
  }
  return front;
}

}  // namespace gns::sr
