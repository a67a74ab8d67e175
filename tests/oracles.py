"""Independent reference implementations the package is checked against.

Everything here is written the slow, obvious way: python loops, flood fill,
explicit set arithmetic.  Nothing imports package internals beyond plain
arrays in / arrays out, so a bug in the fast code cannot hide inside its own
oracle.
"""

import math

import numpy as np


def median_overlap_naive(px: np.ndarray, n: int) -> np.ndarray:
    """Stride-1 binary median with zero padding, counted per pixel."""
    h, w = px.shape
    r = n // 2
    need = (n * n + 1) // 2
    out = np.zeros((h, w), dtype=np.uint8)
    for y in range(h):
        for x in range(w):
            count = 0
            for dy in range(-r, r + 1):
                for dx in range(-r, r + 1):
                    yy, xx = y + dy, x + dx
                    if 0 <= yy < h and 0 <= xx < w and px[yy, xx]:
                        count += 1
            if count >= need:
                out[y, x] = 1
    return out


def nomf_naive(px: np.ndarray, n: int) -> np.ndarray:
    """Disjoint n x n tiles from (0,0); edge tiles vote over their m pixels."""
    h, w = px.shape
    out = np.zeros((h, w), dtype=np.uint8)
    for y0 in range(0, h, n):
        for x0 in range(0, w, n):
            tile = px[y0 : y0 + n, x0 : x0 + n]
            if int(tile.sum()) >= (tile.size + 1) // 2:
                out[y0 : y0 + n, x0 : x0 + n] = 1
    return out


def downscale_or_naive(px: np.ndarray, a: int, b: int) -> np.ndarray:
    h, w = px.shape
    out = np.zeros((math.ceil(h / b), math.ceil(w / a)), dtype=np.uint8)
    for j in range(out.shape[0]):
        for i in range(out.shape[1]):
            if px[j * b : (j + 1) * b, i * a : (i + 1) * a].any():
                out[j, i] = 1
    return out


def flood_boxes(px: np.ndarray, connectivity: int) -> list:
    """Flood-fill component (x, y, w, h) boxes, sorted by (y, x)."""
    h, w = px.shape
    seen = np.zeros((h, w), dtype=bool)
    if connectivity == 4:
        steps = ((-1, 0), (1, 0), (0, -1), (0, 1))
    else:
        steps = ((-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1))
    boxes = []
    for y in range(h):
        for x in range(w):
            if not px[y, x] or seen[y, x]:
                continue
            stack = [(y, x)]
            seen[y, x] = True
            x0 = x1 = x
            y0 = y1 = y
            while stack:
                cy, cx = stack.pop()
                x0 = min(x0, cx)
                x1 = max(x1, cx)
                y0 = min(y0, cy)
                y1 = max(y1, cy)
                for dy, dx in steps:
                    ny, nx = cy + dy, cx + dx
                    if 0 <= ny < h and 0 <= nx < w and px[ny, nx] and not seen[ny, nx]:
                        seen[ny, nx] = True
                        stack.append((ny, nx))
            boxes.append((x0, y0, x1 - x0 + 1, y1 - y0 + 1))
    boxes.sort(key=lambda bx: (bx[1], bx[0]))
    return boxes


def iou_xywh(a, b) -> float:
    ix = min(a[0] + a[2], b[0] + b[2]) - max(a[0], b[0])
    iy = min(a[1] + a[3], b[1] + b[3]) - max(a[1], b[1])
    if ix <= 0 or iy <= 0:
        return 0.0
    inter = ix * iy
    return inter / (a[2] * a[3] + b[2] * b[3] - inter)


def max_matching_size(proposed, gt, thr) -> int:
    """Maximum bipartite matching size over pairs with IoU >= thr."""
    adj = [[j for j, g in enumerate(gt) if iou_xywh(p, g) >= thr] for p in proposed]
    owner = {}

    def augment(i, banned):
        for j in adj[i]:
            if j in banned:
                continue
            banned.add(j)
            if j not in owner or augment(owner[j], banned):
                owner[j] = i
                return True
        return False

    return sum(1 for i in range(len(proposed)) if augment(i, set()))


def race_outcome_naive(bits, currents, vtrips, c_bl, delta_c):
    """Scalar discharge race: 0-cells pull BL, 1-cells pull BLB; the side whose
    opponents trip first wins.  Returns (bit, dt)."""
    n = bits.shape[0]
    k = int(bits.sum())
    if k == 0:
        return 0, float("-inf")
    if k == n * n:
        return 1, float("inf")
    i_bl = i_blb = 0.0
    vt_ones = []
    vt_zeros = []
    for r in range(n):
        for c in range(n):
            if bits[r, c]:
                i_blb += float(currents[r, c])
                vt_ones.append(float(vtrips[r, c]))
            else:
                i_bl += float(currents[r, c])
                vt_zeros.append(float(vtrips[r, c]))
    t_bl = c_bl * (sum(vt_ones) / len(vt_ones)) / i_bl
    t_blb = c_bl * (1.0 + delta_c) * (sum(vt_zeros) / len(vt_zeros)) / i_blb
    dt = n * (t_bl - t_blb)
    return (1 if dt > 0 else 0), dt


def lottery_naive(shape, i_s, sigma_rel, v_trip, sigma_v, seed):
    """Re-implementation of the documented sampling contract: one default_rng
    stream, currents first (clipped to +/-4 sigma, floored), then trips."""
    rng = np.random.default_rng(seed)
    sig = sigma_rel * i_s
    cur = rng.normal(i_s, sig, size=shape)
    cur = np.where(cur > i_s + 4 * sig, i_s + 4 * sig, cur)
    cur = np.where(cur < i_s - 4 * sig, i_s - 4 * sig, cur)
    cur = np.where(cur < 1e-12, 1e-12, cur)
    vtr = rng.normal(v_trip, sigma_v, size=shape)
    vtr = np.where(vtr < 1e-9, 1e-9, vtr)
    return cur, vtr


def filter_in_memory_naive(bits, currents, vtrips, n, c_bl, delta_c, beta):
    """The in-array filter as first written: masked whole-array sums, one
    vectorized race, and pixel-level flip counts over the complete patches.

    Returns (filtered bits, flips_intended, flips_unintended, rho_lambda,
    cycles); the leftover cols % n columns pass through.
    """
    rows, cols = bits.shape
    groups, per_group = rows // n, cols // n
    used = per_group * n
    nn = n * n

    b = bits[:, :used].reshape(groups, n, per_group, n)
    cur = currents[:, :used].reshape(groups, n, per_group, n)
    vtr = vtrips[:, :used].reshape(groups, n, per_group, n)
    ones = b.astype(bool)

    k = ones.sum(axis=(1, 3))
    i_blb = np.where(ones, cur, 0.0).sum(axis=(1, 3))
    i_bl = np.where(ones, 0.0, cur).sum(axis=(1, 3))
    sum_vt_ones = np.where(ones, vtr, 0.0).sum(axis=(1, 3))
    sum_vt_zeros = np.where(ones, 0.0, vtr).sum(axis=(1, 3))
    with np.errstate(divide="ignore", invalid="ignore"):
        v_bl = sum_vt_ones / k
        v_blb = sum_vt_zeros / (nn - k)
        dt = n * (c_bl * v_bl / i_bl - c_bl * (1.0 + delta_c) * v_blb / i_blb)
    outcome = np.where(k == 0, 0, np.where(k == nn, 1, dt > 0)).astype(np.uint8)
    ideal = (k >= (nn + 1) // 2).astype(np.uint8)

    out = bits.copy()
    out_px = outcome.repeat(n, axis=0).repeat(n, axis=1)
    out[:, :used] = out_px
    ideal_px = ideal.repeat(n, axis=0).repeat(n, axis=1)
    flips_intended = int(np.count_nonzero(bits[:, :used] != ideal_px))
    flips_unintended = int(np.count_nonzero(out_px != ideal_px))

    minority = np.minimum(k, nn - k)
    majority = np.maximum(k, nn - k)
    frac = beta * minority / majority
    rho = np.where(outcome == 1, frac, 1.0)
    lam = np.where(outcome == 1, 1.0, frac)
    rho_lambda = list(zip(rho.mean(axis=1).tolist(), lam.mean(axis=1).tolist()))
    return out, flips_intended, flips_unintended, rho_lambda, 2 * groups


def pattern_sweep_naive(n, pattern_ids, shape, i_s, sigma_rel, v_trip, sigma_v, c_bl,
                        delta_c, beta, trials, rng_seed):
    """Unintended flips per pattern: every complete patch of a `shape` array
    holds the pattern, with a fresh lottery per trial at seed
    rng_seed + pattern_index * trials + trial."""
    rows, cols = shape
    used = cols // n * n
    flips = []
    for pi, pid in enumerate(pattern_ids):
        patch = np.array([(pid >> i) & 1 for i in range(n * n)], dtype=np.uint8).reshape(n, n)
        total = 0
        for t in range(trials):
            cur, vtr = lottery_naive(shape, i_s, sigma_rel, v_trip, sigma_v,
                                     rng_seed + pi * trials + t)
            bits = np.zeros(shape, dtype=np.uint8)
            bits[:, :used] = np.tile(patch, (rows // n, cols // n))
            total += filter_in_memory_naive(bits, cur, vtr, n, c_bl, delta_c, beta)[2]
        flips.append(total)
    return flips


def bisect_sigma(ber_at, sigma_bounds, target_ber, iters):
    """Log-space bisection for the spread whose BER first reaches target_ber,
    evaluating ber_at(sigma) at every step."""
    lo, hi = sigma_bounds
    for _ in range(iters):
        mid = math.sqrt(lo * hi)
        if ber_at(mid) < target_ber:
            lo = mid
        else:
            hi = mid
    return math.sqrt(lo * hi)


def aggregate_naive(t, x, y, t_f, width, height):
    """Per-event scatter into half-open t_f windows anchored at the first event."""
    if not len(t):
        return []
    t0 = int(t[0])
    n_frames = (int(t[-1]) - t0) // t_f + 1
    frames = [np.zeros((height, width), dtype=np.uint8) for _ in range(n_frames)]
    for ti, xi, yi in zip(t, x, y):
        frames[(int(ti) - t0) // t_f][yi, xi] = 1
    return frames


def frames_to_events_naive(frames, t_f):
    """(t, x, y, polarity) columns: one +1 event per on pixel, frame by frame
    in row-major order, stamped with its frame's epoch."""
    t, x, y, p = [], [], [], []
    for k, px in enumerate(frames):
        rs, cs = np.nonzero(px)
        for r, c in zip(rs, cs):
            t.append(k * t_f)
            x.append(int(c))
            y.append(int(r))
            p.append(1)
    return t, x, y, p


def write_events_naive(t, x, y, polarity, path):
    """One f-string line per event: t,x,y,p with p = 1 for on, 0 for off."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        for ti, xi, yi, pi in zip(t, x, y, polarity):
            fh.write(f"{ti},{xi},{yi},{1 if pi > 0 else 0}\n")


def crop_padded_naive(px, cx, cy, side):
    """Zero-padded side x side crop centered at (cx, cy), one pixel at a time."""
    h, w = px.shape
    out = np.zeros((side, side), dtype=np.uint8)
    for j in range(side):
        for i in range(side):
            sy = cy - side // 2 + j
            sx = cx - side // 2 + i
            if 0 <= sy < h and 0 <= sx < w:
                out[j, i] = px[sy, sx]
    return out
