"""Attacks on the distribution phase, as steps on state lists.

`protocol.run_distribution_dense` plays the attack of `config.attack`
inline with the steps below; `labels.run` plays the same attack on label
codes.

* collusion: the first and last participants cooperate. Before the run,
  the first participant prepares one probe pair |Psi_11> per position and
  hands one half of each to the last participant. During the run the first
  participant encodes its key on the genuine traveling particles, relays
  them to the last participant over a private channel, and forwards its
  probe halves (with fresh, genuine decoys) into the honest chain instead.
  The middle participants unknowingly encode their keys onto the probe
  halves, so a Bell measurement of each probe pair reveals the XOR of all
  middle keys: |Psi_11> shifts to |Psi_{1^U, 1^V}>, hence the composite key
  is the measured label with both bits flipped (`recover_composite`,
  `read_probes`). The last participant then applies its own key composed
  with the recovered composite to the relayed genuine particles and returns
  them to the dealer. The dealer's pairs end up carrying exactly the XOR of
  all keys, every decoy on every hop is genuine, and both colluders can
  reconstruct the full secret from their own keys plus the recovered
  composites.

* intercept-resend: an outsider on the last hop who measures every
  in-transit particle in a uniformly random Z/X basis (`intercept_resend`).
  Projective measurement leaves the particle in the observed eigenstate,
  which is exactly what resending it prepares. Each decoy on that hop
  mismatches with probability 1/4, so d decoys catch her with probability
  1 - (3/4)^d.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import qcore
from .protocol import TRAVELING_QUBIT, DecoyRecord
from .qcore import Basis, BellLabel, PauliKey, PureState

PROBE_LABEL = BellLabel(1, 1)


def recover_composite(measured: BellLabel) -> PauliKey:
    """Composite middle key from a probe pair's Bell outcome.

    The probe starts at label (1,1); middle keys shift the traveling half
    by XOR, so a measured label (p, q) means the composite is (p^1, q^1).
    """
    measured = BellLabel(*measured)
    return PauliKey(measured.x ^ 1, measured.y ^ 1)


def read_probes(probes: Sequence[PureState], rng: np.random.Generator) -> list[PauliKey]:
    """Bell-measure every probe pair and return the recovered composites.

    The last colluder does this once the probe halves have passed every
    middle participant, so each probe carries the XOR of all middle keys.
    """
    composites = []
    for probe in probes:
        label, _ = qcore.bell_measure(probe, rng)
        composites.append(recover_composite(label))
    return composites


def intercept_resend(
    decoys: Sequence[DecoyRecord],
    decoy_states: list[PureState],
    pairs: list[PureState],
    rng: np.random.Generator,
) -> None:
    """Measure every particle of one hop, in slot order, in a random Z/X basis.

    The hop's decoys sit at their insert positions and the traveling qubits
    of `pairs` fill the other slots in order. Each post-measurement state
    replaces its entry in `decoy_states` or `pairs`: the eigenstate left
    behind is what a resent particle would carry, so collapsing in place
    models the attack exactly.
    """
    decoy_at = {rec.insert_position: i for i, rec in enumerate(decoys)}
    pair_index = 0
    for slot in range(len(decoys) + len(pairs)):
        basis = Basis.Z if rng.integers(2) == 0 else Basis.X
        if slot in decoy_at:
            i = decoy_at[slot]
            _, decoy_states[i] = qcore.measure_in_basis(decoy_states[i], 0, basis, rng)
        else:
            _, pairs[pair_index] = qcore.measure_in_basis(
                pairs[pair_index], TRAVELING_QUBIT, basis, rng
            )
            pair_index += 1
