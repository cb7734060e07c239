"""Walk through the tensor kernels and their hand-derived gradients.

Everything the network does reduces to a handful of rank-4 array
operations: same-padded convolution (which also reads a tuple of arrays as
their channel concatenation), 2x2 max-pooling, 2x2 transposed convolution,
relu, sigmoid, and a stable binary cross-entropy.  Each one ships with a
reverse-mode counterpart, and this script shows both sides plus the
finite-difference checker that keeps the gradients honest.
"""

import numpy as np

from cordseg import ops
from cordseg.ops import ConvParams

print("=== convolution ===")
x = np.arange(1, 10, dtype=np.float32).reshape(1, 1, 3, 3)
print("input plane:\n", x[0, 0])

delta = np.zeros((1, 1, 3, 3), np.float32)
delta[0, 0, 1, 1] = 1.0
out = ops.conv2d(x, ConvParams(delta, np.zeros(1, np.float32)))
print("a center-delta kernel reproduces the input exactly:",
      bool(np.array_equal(out, x)))

box = np.ones((1, 1, 3, 3), np.float32)
out = ops.conv2d(x, ConvParams(box, np.zeros(1, np.float32)))
print("an all-ones kernel sums each zero-padded window:\n", out[0, 0])
print("center pixel sums the whole plane:", out[0, 0, 1, 1], "= 45")

print("\n=== max pooling ===")
plane = np.array([[[[1.0, 3.0], [2.0, 4.0]]]], np.float32)
pooled = ops.maxpool2(plane)
print("window [[1,3],[2,4]] pools to", pooled[0, 0, 0, 0], "and keeps no index")
grad = ops.maxpool2_backward(plane, pooled, np.full_like(pooled, 7.0))
print("backward finds the entry equal to the pooled value and routes the upstream "
      "7.0 only there:\n", grad[0, 0])
ties = np.full((1, 1, 2, 2), 3.0, np.float32)
grad = ops.maxpool2_backward(ties, ops.maxpool2(ties), np.full((1, 1, 1, 1), 7.0, np.float32))
print("on a tie the first maximum in row-major order takes it all:\n", grad[0, 0])

print("\n=== transposed convolution ===")
kernel = np.array([[[[1.0, 2.0], [3.0, 4.0]]]], np.float32)  # (in, out, 2, 2)
pixel = np.full((1, 1, 1, 1), 5.0, np.float32)
up = ops.upconv2(pixel, ConvParams(kernel, np.zeros(1, np.float32)))
print("one input pixel of 5.0 scatters kernel*5 into a 2x2 block:\n", up[0, 0])

print("\n=== loss ===")
logits = np.zeros((1, 1, 1, 1), np.float32)
targets = np.ones_like(logits)
print(f"BCE at logit 0 vs target 1 is ln(2) = {ops.bce_with_logits(logits, targets):.6f}")
big = np.full_like(logits, 50.0)
print(f"BCE at logit 50 vs target 1 stays finite: {ops.bce_with_logits(big, targets):.2e}")

print("\n=== gradient checking ===")
# the checker compares an analytic gradient against central differences;
# here the analytic side is deliberately wrong by a sign
def honest(theta):
    return float(theta[0] ** 2), np.array([2.0 * theta[0]])

def lying(theta):
    return float(theta[0] ** 2), np.array([-2.0 * theta[0]])

print(f"honest f(t)=t^2 at t=3: max rel error "
      f"{ops.finite_diff_errors(honest, np.array([3.0])).max():.2e}")
print(f"sign-flipped gradient is caught immediately: "
      f"{ops.finite_diff_errors(lying, np.array([3.0])).max():.2f}")
