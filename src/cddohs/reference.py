"""Static reference results transcribed from the source study.

TABLE2 holds the published 30-run average/std of CDDO-HS, CDDO and HS on the
19 classical functions. TABLE6 holds the published CEC-C06 2019 averages for
the seven compared algorithms (used only for ranking demos). A checksum test
guards both tables against transcription drift.
"""

from __future__ import annotations

import hashlib
import json

# func -> {algo: (avg, std)}
TABLE2: dict[str, dict[str, tuple[float, float]]] = {
    "F1":  {"cddo-hs": (5.087e-33, 1.057e-32), "cddo": (1.328e-57, 8.635e-73), "hs": (2.850e+02, 9.021e+01)},
    "F2":  {"cddo-hs": (4.921e-17, 4.033e-17), "cddo": (2.453e-32, 4.385e-32), "hs": (3.005e+00, 5.355e-01)},
    "F3":  {"cddo-hs": (1.249e-29, 2.238e-29), "cddo": (2.736e-39, 5.168e-40), "hs": (1.754e+04, 5.815e+03)},
    "F4":  {"cddo-hs": (1.986e-16, 1.920e-16), "cddo": (7.815e-33, 2.784e-48), "hs": (2.214e+01, 1.787e+00)},
    "F5":  {"cddo-hs": (2.298e+00, 6.935e+00), "cddo": (2.419e+01, 1.023e+01), "hs": (2.040e+04, 8.759e+03)},
    "F6":  {"cddo-hs": (5.589e-04, 1.439e-04), "cddo": (7.074e-01, 6.787e-01), "hs": (2.834e+02, 1.023e+02)},
    "F7":  {"cddo-hs": (2.901e-03, 1.497e-03), "cddo": (1.361e-03, 1.123e-03), "hs": (2.042e-01, 5.145e-02)},
    "F8":  {"cddo-hs": (-1.178e+04, 3.098e+03), "cddo": (-1.244e+04, 5.537e+02), "hs": (-1.240e+04, 7.638e+01)},
    "F9":  {"cddo-hs": (2.222e+00, 6.070e+00), "cddo": (1.060e+01, 1.724e+01), "hs": (1.968e+01, 3.683e+00)},
    "F10": {"cddo-hs": (6.809e-15, 1.703e-15), "cddo": (7.875e-15, 4.118e-15), "hs": (5.095e+00, 5.702e-01)},
    "F11": {"cddo-hs": (0.000e+00, 0.000e+00), "cddo": (5.688e-01, 1.532e+00), "hs": (3.513e+00, 8.925e-01)},
    "F12": {"cddo-hs": (1.161e-06, 3.112e-07), "cddo": (3.167e-01, 9.0046e-01), "hs": (7.060e+00, 2.147e+00)},
    "F13": {"cddo-hs": (1.555e-05, 5.271e-06), "cddo": (4.128e-01, 3.745e-01), "hs": (1.622e+02, 1.596e+02)},
    "F14": {"cddo-hs": (5.372e+00, 4.241e+00), "cddo": (9.981e-01, 3.686e-04), "hs": (9.980e-01, 3.448e-11)},
    "F15": {"cddo-hs": (6.249e-04, 2.502e-04), "cddo": (1.181e-03, 1.022e-03), "hs": (6.699e-03, 9.110e-03)},
    "F16": {"cddo-hs": (-1.032e+00, 3.777e-10), "cddo": (-1.029e+00, 3.247e-03), "hs": (-1.032e+00, 1.889e-07)},
    "F17": {"cddo-hs": (3.979e-01, 2.675e-09), "cddo": (4.231e-01, 4.814e-02), "hs": (3.979e-01, 6.467e-06)},
    "F18": {"cddo-hs": (5.700e+00, 8.238e+00), "cddo": (3.117e+00, 1.579e-01), "hs": (3.900e+00, 4.930e+00)},
    "F19": {"cddo-hs": (-3.863e+00, 1.554e-10), "cddo": (-3.728e+00, 1.075e-01), "hs": (-3.863e+00, 4.714e-08)},
}

# CEC-C06 2019 averages for the seven compared algorithms (func -> {algo: avg}).
TABLE6: dict[str, dict[str, float]] = {
    "F1":  {"CDDO-HS": 5.317e+04, "ChOA": 4.240e+09, "BOA": 5.890e+04, "FOX": 2.580e+04, "GWO-WOA": 4.760e+04, "WOA-BAT": 7.600e+07, "DCSO": 3.863e+04},
    "F2":  {"CDDO-HS": 1.835e+01, "ChOA": 1.841e+01, "BOA": 1.890e+01, "FOX": 1.834e+01, "GWO-WOA": 1.834e+01, "WOA-BAT": 1.750e+01, "DCSO": 1.834e+01},
    "F3":  {"CDDO-HS": 1.370e+01, "ChOA": 1.370e+01, "BOA": 1.370e+01, "FOX": 1.370e+01, "GWO-WOA": 1.370e+01, "WOA-BAT": 1.270e+01, "DCSO": 1.370e+01},
    "F4":  {"CDDO-HS": 5.746e+01, "ChOA": 5.933e+03, "BOA": 2.090e+04, "FOX": 1.060e+03, "GWO-WOA": 2.537e+02, "WOA-BAT": 2.120e+03, "DCSO": 7.266e+01},
    "F5":  {"CDDO-HS": 2.170e+00, "ChOA": 4.209e+00, "BOA": 6.180e+00, "FOX": 5.315e+00, "GWO-WOA": 2.426e+00, "WOA-BAT": 2.440e+00, "DCSO": 2.493e+00},
    "F6":  {"CDDO-HS": 1.130e+01, "ChOA": 1.215e+01, "BOA": 1.180e+01, "FOX": 5.033e+00, "GWO-WOA": 1.137e+01, "WOA-BAT": 1.110e+01, "DCSO": 8.864e+00},
    "F7":  {"CDDO-HS": 5.440e+01, "ChOA": 1.007e+03, "BOA": 1.040e+03, "FOX": 3.068e+02, "GWO-WOA": 5.876e+02, "WOA-BAT": 6.060e+02, "DCSO": 3.291e+02},
    "F8":  {"CDDO-HS": 3.150e+00, "ChOA": 6.785e+00, "BOA": 6.340e+00, "FOX": 5.462e+00, "GWO-WOA": 5.587e+00, "WOA-BAT": 5.720e+00, "DCSO": 5.160e+00},
    "F9":  {"CDDO-HS": 3.484e+00, "ChOA": 4.493e+02, "BOA": 2.270e+03, "FOX": 3.796e+00, "GWO-WOA": 5.671e+00, "WOA-BAT": 2.280e+01, "DCSO": 6.104e+00},
    "F10": {"CDDO-HS": 1.554e+01, "ChOA": 2.150e+01, "BOA": 2.150e+01, "FOX": 2.098e+01, "GWO-WOA": 2.156e+01, "WOA-BAT": 2.120e+01, "DCSO": 2.113e+01},
}

# The averages that `rank --reference` ranks, func -> {algo: avg}.
AVERAGES = {"table2": {f: {a: avg for a, (avg, _) in row.items()} for f, row in TABLE2.items()},
            "table6": TABLE6}

# Published per-algorithm ranking scores for the TABLE6 comparison.
TABLE8_SCORES = {
    "CDDO-HS": 2.5, "ChOA": 5.8, "BOA": 6.0, "FOX": 3.1,
    "GWO-WOA": 3.6, "WOA-BAT": 3.8, "DCSO": 2.8,
}


def checksum() -> str:
    """SHA-256 over a canonical serialization of the embedded tables."""
    payload = json.dumps({"t2": TABLE2, "t6": TABLE6, "t8": TABLE8_SCORES},
                         sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()
