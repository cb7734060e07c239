"""Independent reference implementations used as test oracles.

Everything here is deliberately naive: explicit Python loops, float64
accumulation, coordinate sets.  None of it shares code with the package,
so agreement is meaningful.  The one exception is `finite_diff_check`, the
largest of the package's own per-coordinate gradient errors, which the
gradient tests use as their yardstick.
"""

import struct
import zlib

import numpy as np

from cordseg import ops


def conv2d_reference(x, weights, bias):
    """Six nested loops, zero same-padding, stride 1, float64 accumulation."""
    n, c, h, w = x.shape
    oc, ic, kh, kw = weights.shape
    assert c == ic
    ph, pw = (kh - 1) // 2, (kw - 1) // 2
    out = np.zeros((n, oc, h, w), dtype=np.float64)
    for b in range(n):
        for o in range(oc):
            for y in range(h):
                for xx in range(w):
                    acc = float(bias[o])
                    for ch in range(ic):
                        for u in range(kh):
                            for v in range(kw):
                                yy = y + u - ph
                                xv = xx + v - pw
                                if 0 <= yy < h and 0 <= xv < w:
                                    acc += float(x[b, ch, yy, xv]) * float(weights[o, ch, u, v])
                    out[b, o, y, xx] = acc
    return out


def conv2d_backward_reference(x, weights, grad_out):
    """Gradients of conv2d_reference w.r.t. (input, weights, bias).

    Every output pixel hands grad * weight back to each input pixel its
    window reads and grad * input to each weight tap; float64 accumulation.
    """
    n, c, h, w = x.shape
    oc, ic, kh, kw = weights.shape
    assert c == ic and grad_out.shape == (n, oc, h, w)
    ph, pw = (kh - 1) // 2, (kw - 1) // 2
    grad_x = np.zeros((n, c, h, w), dtype=np.float64)
    grad_w = np.zeros((oc, ic, kh, kw), dtype=np.float64)
    grad_b = np.zeros(oc, dtype=np.float64)
    for b in range(n):
        for o in range(oc):
            for y in range(h):
                for xx in range(w):
                    g = float(grad_out[b, o, y, xx])
                    grad_b[o] += g
                    for ch in range(ic):
                        for u in range(kh):
                            for v in range(kw):
                                yy = y + u - ph
                                xv = xx + v - pw
                                if 0 <= yy < h and 0 <= xv < w:
                                    grad_x[b, ch, yy, xv] += g * float(weights[o, ch, u, v])
                                    grad_w[o, ch, u, v] += g * float(x[b, ch, yy, xv])
    return grad_x, grad_w, grad_b


def upconv2_reference(x, weights, bias):
    """Scatter every input pixel into its 2x2 output block."""
    n, ic, h, w = x.shape
    ic2, oc, kh, kw = weights.shape
    assert ic == ic2 and (kh, kw) == (2, 2)
    out = np.zeros((n, oc, 2 * h, 2 * w), dtype=np.float64)
    for b in range(n):
        for o in range(oc):
            for y in range(h):
                for xx in range(w):
                    for ch in range(ic):
                        for u in range(2):
                            for v in range(2):
                                out[b, o, 2 * y + u, 2 * xx + v] += (
                                    float(x[b, ch, y, xx]) * float(weights[ch, o, u, v]))
    out += np.asarray(bias, dtype=np.float64)[None, :, None, None]
    return out


def upconv2_backward_reference(x, weights, grad_out):
    """Gradients of upconv2_reference w.r.t. (input, weights, bias).

    Every output pixel (2y+u, 2x+v) hands grad * weight back to input pixel
    (y, x) and grad * input to weight tap (u, v); float64 accumulation.
    """
    n, ic, h, w = x.shape
    ic2, oc, kh, kw = weights.shape
    assert ic == ic2 and (kh, kw) == (2, 2) and grad_out.shape == (n, oc, 2 * h, 2 * w)
    grad_x = np.zeros((n, ic, h, w), dtype=np.float64)
    grad_w = np.zeros((ic, oc, 2, 2), dtype=np.float64)
    grad_b = np.zeros(oc, dtype=np.float64)
    for b in range(n):
        for o in range(oc):
            for y in range(h):
                for xx in range(w):
                    for u in range(2):
                        for v in range(2):
                            g = float(grad_out[b, o, 2 * y + u, 2 * xx + v])
                            grad_b[o] += g
                            for ch in range(ic):
                                grad_x[b, ch, y, xx] += g * float(weights[ch, o, u, v])
                                grad_w[ch, o, u, v] += g * float(x[b, ch, y, xx])
    return grad_x, grad_w, grad_b


def maxpool2_reference(x):
    """Enumerate every 2x2 window; first maximum in row-major scan wins."""
    n, c, h, w = x.shape
    out = np.zeros((n, c, h // 2, w // 2), dtype=np.float64)
    idx = np.zeros((n, c, h // 2, w // 2), dtype=np.int64)
    for b in range(n):
        for ch in range(c):
            for y in range(h // 2):
                for xx in range(w // 2):
                    values = [float(x[b, ch, 2 * y + u, 2 * xx + v])
                              for u in range(2) for v in range(2)]
                    best = 0
                    for i in range(1, 4):
                        if values[i] > values[best]:
                            best = i
                    out[b, ch, y, xx] = values[best]
                    idx[b, ch, y, xx] = best
    return out, idx


def maxpool2_backward_reference(idx, grad_out):
    """Scatter grad_out into each window at its index from maxpool2_reference."""
    n, c, hp, wp = idx.shape
    grad = np.zeros((n, c, 2 * hp, 2 * wp), dtype=grad_out.dtype)
    for b in range(n):
        for ch in range(c):
            for y in range(hp):
                for xx in range(wp):
                    k = idx[b, ch, y, xx]
                    grad[b, ch, 2 * y + k // 2, 2 * xx + k % 2] = grad_out[b, ch, y, xx]
    return grad


def png_unfilter_reference(rows):
    """Undo PNG row filters one row at a time, Average and Paeth per pixel.

    `rows` is (height, width + 1) uint8 scanlines, filter byte first; every
    filter byte must be 0..4.  Integer arithmetic throughout.
    """
    height, width = rows.shape[0], rows.shape[1] - 1
    out = np.zeros((height, width), dtype=np.uint8)
    prev = np.zeros(width, dtype=np.int32)
    for y in range(height):
        ftype = rows[y, 0]
        cur = rows[y, 1:].astype(np.int32)
        if ftype == 0:
            line = cur
        elif ftype == 1:  # Sub: cumulative along the row
            line = np.cumsum(cur, dtype=np.int64) & 255
        elif ftype == 2:  # Up
            line = (cur + prev) & 255
        elif ftype == 3:  # Average
            line = np.empty(width, dtype=np.int32)
            left = 0
            for x in range(width):
                left = (cur[x] + ((left + prev[x]) >> 1)) & 255
                line[x] = left
        elif ftype == 4:  # Paeth
            line = np.empty(width, dtype=np.int32)
            left = 0
            for x in range(width):
                up = int(prev[x])
                ul = int(prev[x - 1]) if x else 0
                p = left + up - ul
                pa, pb, pc = abs(p - left), abs(p - up), abs(p - ul)
                if pa <= pb and pa <= pc:
                    pred = left
                elif pb <= pc:
                    pred = up
                else:
                    pred = ul
                left = (cur[x] + pred) & 255
                line[x] = left
        else:
            raise ValueError(f"row {y} uses unknown filter {ftype}")
        out[y] = line
        prev = line.astype(np.int32)
    return out


def confusion_reference(pred, truth):
    """Per-pixel enumeration into (tp, fp, fn, tn)."""
    tp = fp = fn = tn = 0
    for p, t in zip(pred.ravel().tolist(), truth.ravel().tolist()):
        if p and t:
            tp += 1
        elif p and not t:
            fp += 1
        elif not p and t:
            fn += 1
        else:
            tn += 1
    return tp, fp, fn, tn


def iou_reference(pred, truth):
    """Jaccard index over foreground coordinate sets."""
    p = {(y, x) for y, x in zip(*np.nonzero(pred))}
    t = {(y, x) for y, x in zip(*np.nonzero(truth))}
    union = p | t
    if not union:
        return 1.0
    return len(p & t) / len(union)


def pixel_accuracy_reference(pred, truth):
    same = sum(1 for p, t in zip(pred.ravel().tolist(), truth.ravel().tolist()) if p == t)
    return same / pred.size


def adam_reference(theta, grad, m, v, t, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
    """One Adam update on plain Python floats."""
    t = t + 1
    m = beta1 * m + (1 - beta1) * grad
    v = beta2 * v + (1 - beta2) * grad * grad
    m_hat = m / (1 - beta1 ** t)
    v_hat = v / (1 - beta2 ** t)
    theta = theta - lr * m_hat / (v_hat ** 0.5 + eps)
    return theta, m, v, t


def unet_parameter_count_reference(depth, base, in_channels=1, out_channels=1):
    """Count parameters from the channel plan, independently of the package.

    conv(c_in -> c_out, k): c_out*c_in*k*k + c_out
    upconv(c_in -> c_out): c_in*c_out*4 + c_out
    """
    def conv(ci, co, k):
        return co * ci * k * k + co

    total = 0
    prev = in_channels
    for i in range(depth):
        c = base * 2 ** i
        total += conv(prev, c, 3) + conv(c, c, 3)
        prev = c
    c = base * 2 ** depth
    total += conv(prev, c, 3) + conv(c, c, 3)
    prev = c
    for i in reversed(range(depth)):
        c = base * 2 ** i
        total += prev * c * 4 + c          # transposed conv
        total += conv(2 * c, c, 3) + conv(c, c, 3)
        prev = c
    total += conv(base, out_channels, 1)
    return total


def relu(x):
    """Elementwise max(x, 0)."""
    return np.maximum(x, 0)


def sigmoid_two_branch(x):
    """The logistic function branched on the sign through boolean masks, so
    neither tail overflows: 1 / (1 + exp(-x)) where x >= 0, e / (1 + e)
    with e = exp(x) elsewhere."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def sigmoid_backward(y, grad_out):
    """Reverse mode of the logistic function from its output y = sigmoid(x)."""
    return grad_out * y * (1.0 - y)


def encode_png(img):
    """A minimal 8-bit grayscale PNG of a 2-D uint8 image: one IDAT, filter 0 rows."""
    assert img.ndim == 2 and img.dtype == np.uint8, (img.dtype, img.shape)
    height, width = img.shape

    def chunk(ctype, body):
        return (struct.pack(">I", len(body)) + ctype + body
                + struct.pack(">I", zlib.crc32(ctype + body)))

    scanlines = np.zeros((height, width + 1), dtype=np.uint8)
    scanlines[:, 1:] = img
    return (b"\x89PNG\r\n\x1a\n"
            + chunk(b"IHDR", struct.pack(">IIBBBBB", width, height, 8, 0, 0, 0, 0))
            + chunk(b"IDAT", zlib.compress(scanlines.tobytes()))
            + chunk(b"IEND", b""))


def finite_diff_check(f, theta, step=1e-3):
    """Max relative error between analytic and central-difference gradients."""
    errors = ops.finite_diff_errors(f, theta, step)
    return float(errors.max()) if errors.size else 0.0
