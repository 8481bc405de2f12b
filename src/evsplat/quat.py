"""Quaternion helpers shared by the scene representation and pose interpolation.

Quaternions are (w, x, y, z), Hamilton convention.  Rotation matrices act on
column vectors.
"""

from __future__ import annotations

import numpy as np


def quat_normalize(q: np.ndarray) -> np.ndarray:
    q = np.asarray(q, dtype=np.float64)
    return q / np.linalg.norm(q, axis=-1, keepdims=True)


def quat_to_rot(q: np.ndarray) -> np.ndarray:
    """Unit quaternion(s) (..., 4) to rotation matrix (..., 3, 3)."""
    q = quat_normalize(q)
    w, x, y, z = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    rows = [
        1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y),
        2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x),
        2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y),
    ]
    return np.stack(rows, axis=-1).reshape(*q.shape[:-1], 3, 3)


def rot_to_quat(r: np.ndarray) -> np.ndarray:
    """3x3 rotation matrix to unit quaternion (w >= 0 branch)."""
    r = np.asarray(r, dtype=np.float64)
    tr = np.trace(r)
    if tr > 0:
        s = np.sqrt(tr + 1.0) * 2
        q = np.array([0.25 * s,
                      (r[2, 1] - r[1, 2]) / s,
                      (r[0, 2] - r[2, 0]) / s,
                      (r[1, 0] - r[0, 1]) / s])
    else:
        i = int(np.argmax(np.diag(r)))
        j, k = (i + 1) % 3, (i + 2) % 3
        s = np.sqrt(max(r[i, i] - r[j, j] - r[k, k] + 1.0, 0.0)) * 2
        q = np.empty(4)
        q[0] = (r[k, j] - r[j, k]) / s
        q[1 + i] = 0.25 * s
        q[1 + j] = (r[j, i] + r[i, j]) / s
        q[1 + k] = (r[k, i] + r[i, k]) / s
    if q[0] < 0:
        q = -q
    return q / np.linalg.norm(q)


def quat_slerp(qa: np.ndarray, qb: np.ndarray, u: float) -> np.ndarray:
    """Spherical-linear interpolation between unit quaternions at fraction u."""
    qa = quat_normalize(qa)
    qb = quat_normalize(qb)
    dot = float(np.dot(qa, qb))
    if dot < 0:
        qb = -qb
        dot = -dot
    if dot > 1 - 1e-12:
        return quat_normalize(qa + u * (qb - qa))
    theta = np.arccos(np.clip(dot, -1.0, 1.0))
    return (np.sin((1 - u) * theta) * qa + np.sin(u * theta) * qb) / np.sin(theta)
