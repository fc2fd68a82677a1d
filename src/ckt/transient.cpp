#include "src/ckt/transient.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "src/numeric/lu.hpp"
#include "src/numeric/matrix.hpp"

namespace emi::ckt {

namespace {

constexpr double kVt = 0.02585;  // thermal voltage at 300 K

void stamp_g(num::MatrixD& a, NodeId n1, NodeId n2, double g) {
  if (n1 >= 0) a(index(n1), index(n1)) += g;
  if (n2 >= 0) a(index(n2), index(n2)) += g;
  if (n1 >= 0 && n2 >= 0) {
    a(index(n1), index(n2)) -= g;
    a(index(n2), index(n1)) -= g;
  }
}

double node_v(const std::vector<double>& x, NodeId n) { return n >= 0 ? x[index(n)] : 0.0; }

}  // namespace

double TransientResult::voltage(const std::string& node, std::size_t step) const {
  const auto id = circuit_->find_node(node);
  if (!id) throw std::invalid_argument("TransientResult::voltage: unknown node " + node);
  if (*id == kGround) return 0.0;
  return x_.at(step).at(static_cast<std::size_t>(*id));
}

double TransientResult::inductor_current(const std::string& name,
                                         std::size_t step) const {
  const std::size_t li = circuit_->inductor_index(name);
  return x_.at(step).at(circuit_->inductor_branch(li));
}

std::vector<double> TransientResult::voltage_waveform(const std::string& node) const {
  std::vector<double> out(times_.size());
  for (std::size_t i = 0; i < times_.size(); ++i) out[i] = voltage(node, i);
  return out;
}

TransientResult transient_solve(const Circuit& c, const TransientOptions& opt) {
  if (opt.dt <= 0.0 || opt.t_stop <= opt.dt) {
    throw std::invalid_argument("transient_solve: bad time grid");
  }
  const std::size_t n_unknowns = c.unknown_count();
  const std::size_t n_nodes = c.node_count();
  const auto lmat = c.inductance_matrix();
  const auto& inds = c.inductors();
  const auto& vs = c.vsources();
  const double h = opt.dt;

  const std::size_t n_steps = static_cast<std::size_t>(opt.t_stop / h) + 1;

  std::vector<double> times;
  times.reserve(n_steps);
  std::vector<std::vector<double>> states;
  states.reserve(n_steps);

  // Initial condition: all zero (caps discharged, inductors currentless).
  std::vector<double> x_prev(n_unknowns, 0.0);
  times.push_back(0.0);
  states.push_back(x_prev);

  // Histories needed by the trapezoidal companion models.
  std::vector<double> cap_i_prev(c.capacitors().size(), 0.0);
  std::vector<double> ind_v_prev(inds.size(), 0.0);

  std::vector<double> x = x_prev;  // Newton iterate, warm-started

  for (std::size_t step = 1; step < n_steps; ++step) {
    const double t = static_cast<double>(step) * h;

    bool converged = false;
    for (std::size_t iter = 0; iter < opt.max_newton_iters; ++iter) {
      num::MatrixD a(n_unknowns, n_unknowns);
      std::vector<double> rhs(n_unknowns, 0.0);

      for (std::size_t ni = 0; ni < n_nodes; ++ni) a(ni, ni) += opt.g_min;

      for (const Resistor& r : c.resistors()) stamp_g(a, r.n1, r.n2, 1.0 / r.ohms);

      for (const Switch& s : c.switches()) {
        stamp_g(a, s.n1, s.n2, 1.0 / s.resistance(s.control.value(t)));
      }

      // Capacitors: trapezoidal companion  i = (2C/h) v - Ieq,
      // Ieq = (2C/h) v_prev + i_prev.
      for (std::size_t ci = 0; ci < c.capacitors().size(); ++ci) {
        const Capacitor& cap = c.capacitors()[ci];
        const double geq = 2.0 * cap.farads / h;
        const double v_prev = node_v(x_prev, cap.n1) - node_v(x_prev, cap.n2);
        const double ieq = geq * v_prev + cap_i_prev[ci];
        stamp_g(a, cap.n1, cap.n2, geq);
        if (cap.n1 >= 0) rhs[index(cap.n1)] += ieq;
        if (cap.n2 >= 0) rhs[index(cap.n2)] -= ieq;
      }

      // Diodes: Newton companion around the current iterate.
      for (const Diode& d : c.diodes()) {
        double vd = node_v(x, d.anode) - node_v(x, d.cathode);
        // Junction-voltage limiting for robustness.
        const double v_crit = d.n * kVt * std::log(d.n * kVt / (d.i_s * 1.41421356));
        vd = std::min(vd, v_crit + 0.3);
        const double e = std::exp(std::min(vd / (d.n * kVt), 80.0));
        const double id = d.i_s * (e - 1.0);
        const double gd = std::max(d.i_s * e / (d.n * kVt), opt.g_min);
        const double ieq = id - gd * vd;
        stamp_g(a, d.anode, d.cathode, gd);
        if (d.anode >= 0) rhs[index(d.anode)] -= ieq;
        if (d.cathode >= 0) rhs[index(d.cathode)] += ieq;
      }

      // Inductor branches with the coupled inductance matrix:
      // v^{n+1} = (2/h) * sum_j L_ij (i_j^{n+1} - i_j^n) - v^n.
      for (std::size_t i = 0; i < inds.size(); ++i) {
        const std::size_t bi = c.inductor_branch(i);
        if (inds[i].n1 >= 0) {
          a(index(inds[i].n1), bi) += 1.0;
          a(bi, index(inds[i].n1)) += 1.0;
        }
        if (inds[i].n2 >= 0) {
          a(index(inds[i].n2), bi) -= 1.0;
          a(bi, index(inds[i].n2)) -= 1.0;
        }
        double hist = -ind_v_prev[i];
        for (std::size_t j = 0; j < inds.size(); ++j) {
          if (lmat[i][j] == 0.0) continue;
          const double f = 2.0 * lmat[i][j] / h;
          a(bi, c.inductor_branch(j)) -= f;
          hist -= f * x_prev[c.inductor_branch(j)];
        }
        rhs[bi] = hist;
      }

      // Voltage sources at t^{n+1}.
      for (std::size_t i = 0; i < vs.size(); ++i) {
        const std::size_t bi = c.vsource_branch(i);
        if (vs[i].n1 >= 0) {
          a(index(vs[i].n1), bi) += 1.0;
          a(bi, index(vs[i].n1)) += 1.0;
        }
        if (vs[i].n2 >= 0) {
          a(index(vs[i].n2), bi) -= 1.0;
          a(bi, index(vs[i].n2)) -= 1.0;
        }
        rhs[bi] = vs[i].wave.value(t);
      }

      for (const ISource& is : c.isources()) {
        const double i0 = is.wave.value(t);
        if (is.n1 >= 0) rhs[index(is.n1)] -= i0;
        if (is.n2 >= 0) rhs[index(is.n2)] += i0;
      }

      // value() raises the Status of a failed step (singular matrix,
      // injected lu fault) as an exception, the contract of transient_solve.
      std::vector<double> x_new = num::try_solve(std::move(a), rhs).value();

      // Convergence on the largest relative unknown change.
      double worst = 0.0;
      for (std::size_t u = 0; u < n_unknowns; ++u) {
        const double denom = opt.abs_tol + opt.rel_tol * std::fabs(x_new[u]);
        worst = std::max(worst, std::fabs(x_new[u] - x[u]) / denom);
      }
      x = std::move(x_new);
      if (worst < 1.0) {
        converged = true;
        break;
      }
    }
    if (!converged && c.diodes().empty()) {
      // Linear circuits converge in one iteration by construction; reaching
      // here indicates a numerical problem worth surfacing.
      throw std::runtime_error("transient_solve: linear step failed to converge");
    }

    // Update companion histories from the accepted solution.
    for (std::size_t ci = 0; ci < c.capacitors().size(); ++ci) {
      const Capacitor& cap = c.capacitors()[ci];
      const double geq = 2.0 * cap.farads / h;
      const double v_prev = node_v(x_prev, cap.n1) - node_v(x_prev, cap.n2);
      const double v_now = node_v(x, cap.n1) - node_v(x, cap.n2);
      cap_i_prev[ci] = geq * (v_now - v_prev) - cap_i_prev[ci];
    }
    for (std::size_t i = 0; i < inds.size(); ++i) {
      double v = 0.0;
      for (std::size_t j = 0; j < inds.size(); ++j) {
        if (lmat[i][j] == 0.0) continue;
        v += 2.0 * lmat[i][j] / h *
             (x[c.inductor_branch(j)] - x_prev[c.inductor_branch(j)]);
      }
      ind_v_prev[i] = v - ind_v_prev[i];
    }

    x_prev = x;
    times.push_back(t);
    states.push_back(x_prev);
  }

  return TransientResult(c, std::move(times), std::move(states));
}

}  // namespace emi::ckt
