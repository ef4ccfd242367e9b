"""Bundled example models and parametric generators used by tests and docs."""

from __future__ import annotations

from importlib import resources

from .build import DEFAULT_STATE_CAP, build_mdp, load_model
from .core import Mdp
from .lang import parse_model

_NAMES = ("fig1", "mutex", "sync2", "grid")


def model_text(name: str) -> str:
    """Source text of a bundled model ('fig1', 'mutex', 'sync2', 'grid')."""
    suffix = ".flat" if name.endswith(".flat") else ".mdp"
    stem = name.removesuffix(".flat").removesuffix(".mdp")
    return (resources.files("mdpdistill") / "models" / f"{stem}{suffix}").read_text()


def load(name: str, *, state_cap: int = DEFAULT_STATE_CAP) -> Mdp:
    return load_model(model_text(name), state_cap=state_cap)


def fig1_extended_text(k: int) -> str:
    """The two-road model with a length-k low-value detour chain at the coin
    state; the chain inflates the state space without touching any value."""
    return f"""\
module main
  loc : [0..6] init 0;
  pos : [1..2] init 1;
  n : [0..{k}] init 0;

  [a]  loc=0 -> 0.99:(loc'=3) + 0.01:(loc'=1)&(pos'=2);
  [b]  loc=0 -> 0.5:(loc'=4) + 0.5:(loc'=4)&(pos'=2);
  [c]  loc=1 -> 0.5:(loc'=3)&(pos'=1) + 0.5:(loc'=5);
  [d]  loc=1 -> 1:(loc'=5)&(pos'=1);
  [v]  loc=1 -> 1:(loc'=2);
  [w]  loc=2 & n<{k} -> 0.5:(n'=n+1) + 0.5:(loc'=5)&(pos'=1)&(n'=0);
  [wend] loc=2 & n={k} -> 1:(loc'=5)&(pos'=1)&(n'=0);
  [st] loc=4 -> 1:(loc'=4);
  [e]  loc=4 -> 0.5:(loc'=5)&(pos'=2) + 0.5:(loc'=6);
  [dd] loc>=5 -> 1:(loc'=loc);
endmodule

target loc=3
"""


def fig1_extended(k: int) -> Mdp:
    return build_mdp(parse_model(fig1_extended_text(k)))


def grid_text(n: int) -> str:
    """The bundled cliff walk on an n x n grid: W = n-1, the storm column
    n//2, and the ranges and bounds widened."""
    return (model_text("grid").replace("100x100", f"{n}x{n}").replace("99", str(n - 1))
            .replace("STORMX = 50", f"STORMX = {n // 2}"))
