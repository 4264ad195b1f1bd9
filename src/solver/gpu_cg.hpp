// Device-resident conjugate gradient over the simulated GPU: SpMV runs as
// the CRSD kernel, the vector kernels (axpy, dot, scale) are modeled as
// bandwidth-bound streaming launches, and the vectors stay on the device —
// x/y cross PCIe once per solve instead of once per SpMV. This is the
// "solver context" the paper's conclusion appeals to when it notes that
// per-SpMV transfers erode the GPU advantage.
#pragma once

#include "core/crsd_matrix.hpp"
#include "hybrid/transfer.hpp"
#include "kernels/crsd_gpu.hpp"
#include "solver/solvers.hpp"

namespace crsd::solver {

struct GpuSolveTiming {
  double spmv_seconds = 0.0;     ///< accumulated simulated SpMV time
  double vector_seconds = 0.0;   ///< accumulated axpy/dot/etc. time
  double transfer_seconds = 0.0; ///< one-time b down / x up
  double total_seconds() const {
    return spmv_seconds + vector_seconds + transfer_seconds;
  }
};

struct GpuSolveResult {
  SolveResult solve;
  GpuSolveTiming timing;
};

/// Modeled cost of one streaming vector kernel touching `bytes` of device
/// memory (axpy reads 2 vectors + writes 1; dot reads 2 + a reduction).
inline double vector_kernel_seconds(const gpusim::DeviceSpec& spec,
                                    size64_t bytes) {
  return spec.launch_overhead_seconds +
         double(bytes) / (spec.global_bandwidth_gbps * 1e9);
}

/// CG with the matrix resident on `dev` in CRSD form: conjugate_gradient
/// (unpreconditioned) with the simulated CRSD kernel as its operator. The
/// numerics run on the host (the simulator computes real values); the
/// timing ledger charges each operation as the device would — every SpMV
/// as it launches, the vector kernels replayed afterwards from the
/// iteration count in the loop's order.
template <Real T>
GpuSolveResult gpu_conjugate_gradient(gpusim::Device& dev,
                                      const CrsdMatrix<T>& m, const T* b,
                                      T* x, const SolveOptions& opts = {},
                                      const hybrid::PcieSpec& pcie =
                                          hybrid::PcieSpec::pcie_gen2_x16()) {
  const index_t n = m.num_rows();
  CRSD_CHECK_MSG(m.num_cols() == n, "CG needs a square operator");
  const size64_t vec_bytes = static_cast<size64_t>(n) * sizeof(T);

  GpuSolveResult result;
  // b down before the solve, x up after it.
  result.timing.transfer_seconds =
      hybrid::transfer_seconds(pcie, vec_bytes) * 2;
  result.solve = conjugate_gradient<T>(
      n,
      [&](const T* in, T* out) {
        result.timing.spmv_seconds +=
            kernels::gpu_spmv_crsd(dev, m, in, out).seconds;
      },
      b, x, opts);

  auto charge_vector_op = [&](int vectors_touched) {
    result.timing.vector_seconds += vector_kernel_seconds(
        dev.spec(), static_cast<size64_t>(vectors_touched) * vec_bytes);
  };
  charge_vector_op(3);  // r = b - A*x
  charge_vector_op(2);  // p = r
  charge_vector_op(2);  // r'r
  for (int it = 0; it < result.solve.iterations; ++it) {
    charge_vector_op(2);  // p'Ap
    charge_vector_op(6);  // x += alpha p, r -= alpha Ap
    charge_vector_op(2);  // r'r
    const bool last = it + 1 == result.solve.iterations;
    if (!(last && result.solve.converged)) charge_vector_op(3);  // p update
  }
  return result;
}

}  // namespace crsd::solver
