#include "cell/validation.hpp"

#include <cmath>
#include <stdexcept>

#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace tv::cell {

namespace {

using util::fmt;

/// Binomial standard-error estimate of a proportion over `trials`.
double proportion_se(double p, double trials) {
  if (trials <= 0.0) return 0.0;
  const double clamped = p < 0.0 ? 0.0 : (p > 1.0 ? 1.0 : p);
  return std::sqrt(clamped * (1.0 - clamped) / trials);
}

/// Acceptance band beyond z standard errors: an allowance for the
/// decoupling bias, and a floor for near-zero statistics.
constexpr double kRelativeSlack = 0.06;
constexpr double kAbsoluteFloor = 5e-4;

void add_check(CellValidationCellResult& r, const CellValidationSpec& spec,
               std::string name, double simulated, double analytic,
               double se) {
  const double tolerance =
      spec.z * se + kRelativeSlack * std::abs(analytic) + kAbsoluteFloor;
  r.checks.push_back(
      util::check(std::move(name), simulated, analytic, tolerance));
}

std::vector<wifi::DcfClass> cell_classes(const CellValidationSpec& spec,
                                         const CellValidationCell& cell) {
  std::vector<wifi::DcfClass> classes{
      {cell.contenders, cell.cw_min, cell.stages}};
  if (spec.background_stations > 0) {
    classes.push_back({spec.background_stations, spec.background_cw_min,
                       spec.background_stages});
  }
  return classes;
}

}  // namespace

void CellValidationSpec::validate() const {
  if (contenders.empty() || cw_mins.empty() || stage_counts.empty()) {
    throw std::invalid_argument{"CellValidationSpec: empty axis"};
  }
  for (int n : contenders) {
    if (n < 1) throw std::invalid_argument{"CellValidationSpec: n < 1"};
  }
  for (int w : cw_mins) {
    if (w < 1) throw std::invalid_argument{"CellValidationSpec: cw_min < 1"};
  }
  for (int m : stage_counts) {
    if (m < 0) throw std::invalid_argument{"CellValidationSpec: stages < 0"};
  }
  if (background_stations < 0 || background_cw_min < 1 ||
      background_stages < 0) {
    throw std::invalid_argument{"CellValidationSpec: bad background class"};
  }
  if (slots == 0) throw std::invalid_argument{"CellValidationSpec: no slots"};
  if (z <= 0.0) {
    throw std::invalid_argument{"CellValidationSpec: bad acceptance band"};
  }
}

std::size_t CellValidationSpec::cell_count() const {
  return contenders.size() * cw_mins.size() * stage_counts.size();
}

std::vector<CellValidationCell> enumerate_validation_cells(
    const CellValidationSpec& spec) {
  return util::cartesian(
      [&](std::size_t index, int n, int w, int m) {
        CellValidationCell cell;
        cell.index = index;
        cell.contenders = n;
        cell.cw_min = w;
        cell.stages = m;
        cell.seed = util::derive_seed(spec.seed, index);
        return cell;
      },
      spec.contenders, spec.cw_mins, spec.stage_counts);
}

CellValidationCellResult run_cell_validation_cell(
    const CellValidationSpec& spec, const CellValidationCell& cell) {
  CellValidationCellResult r;
  r.cell = cell;
  const std::vector<wifi::DcfClass> classes = cell_classes(spec, cell);
  r.model = wifi::solve_dcf_classes(classes);
  r.sim = wifi::simulate_dcf_classes(classes, spec.slots, spec.warmup,
                                     cell.seed);

  const double slots = static_cast<double>(spec.slots);
  const char* labels[] = {"video", "bg"};
  for (std::size_t c = 0; c < classes.size(); ++c) {
    const double stations = classes[c].stations;
    // tau_c: one Bernoulli trial per station per slot.
    add_check(r, spec, fmt("tau[%s]", labels[c]),
              r.sim.attempt_probability[c], r.model.attempt_probability[c],
              proportion_se(r.model.attempt_probability[c],
                            stations * slots));
    // p_c: conditioned on the class's measured transmissions.
    add_check(r, spec, fmt("p[%s]", labels[c]),
              r.sim.collision_probability[c],
              r.model.collision_probability[c],
              proportion_se(r.model.collision_probability[c],
                            static_cast<double>(r.sim.transmissions[c])));
  }
  // Cell-wide success fraction: one trial per slot.
  add_check(r, spec, "success",
            static_cast<double>(r.sim.success_slots) / slots,
            r.model.success_prob,
            proportion_se(r.model.success_prob, slots));
  return r;
}

void table_header(std::ostream& out, const CellValidationSpec& /*spec*/) {
  out << "cell   n   W    m   ";
  out << "tau_sim    tau_fp     p_sim      p_fp       succ_sim   succ_fp    "
         "checks\n";
}

void table_row(std::ostream& out, const CellValidationSpec& /*spec*/,
               const CellValidationCellResult& r) {
  const std::size_t failed = util::failed_count(r.checks);
  out << fmt("%4zu %3d %4d %4d   %.7f  %.7f  %.7f  %.7f  %.7f  %.7f  ",
             r.cell.index, r.cell.contenders, r.cell.cw_min, r.cell.stages,
             r.sim.attempt_probability[0], r.model.attempt_probability[0],
             r.sim.collision_probability[0],
             r.model.collision_probability[0],
             static_cast<double>(r.sim.success_slots) /
                 static_cast<double>(r.sim.slots),
             r.model.success_prob);
  if (failed == 0) {
    out << fmt("%zu/%zu ok\n", r.checks.size(), r.checks.size());
  } else {
    out << fmt("%zu FAILED:", failed);
    for (const CellValidationCheck& c : r.checks) {
      if (c.ok) continue;
      out << fmt(" %s(|%.5f-%.5f|>%.5f)", c.name.c_str(), c.simulated,
                 c.analytic, c.tolerance);
    }
    out << "\n";
  }
}

util::Record to_record(const CellValidationCellResult& r) {
  util::Record out;
  out.add("cell", r.cell.index)
      .add("n", r.cell.contenders)
      .add("cw_min", r.cell.cw_min)
      .add("stages", r.cell.stages)
      .add("seed", r.cell.seed)
      .add("passed", r.passed())
      .add("iterations", r.model.iterations)
      .add("checks", util::to_array(r.checks));
  return out;
}

util::GridSummary run_cell_validation(const CellValidationSpec& spec,
                                      CellValidationSink& sink,
                                      util::ThreadPool* pool) {
  spec.validate();
  const std::vector<CellValidationCell> cells =
      enumerate_validation_cells(spec);
  return util::stream_grid(
      pool, util::Rows::kPool, spec, cells.size(), [] {},
      [&](std::size_t i) { return run_cell_validation_cell(spec, cells[i]); },
      sink,
      [](util::GridSummary& summary, const CellValidationCellResult& r) {
        util::tally(summary, r.checks);
      });
}

}  // namespace tv::cell
