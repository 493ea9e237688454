"""Deterministic federation simulator: client sampling and emissions accounting.

No learning happens here. Each round the server draws a client subset, and
every phase it would run is priced by the TDP-based emissions estimator:
one training row per drawn client, a communication row when communication
is priced, and one server aggregation row. Rounds are drawn in batches and
logged in order, in one thread; every random draw is addressed by the seed
and a round or client index rather than by call order, so outputs are
bit-reproducible functions of ``(config, seed)``.

Client selection stream
-----------------------
The per-round randomness is a counter-based SHA-256 keystream, documented
here so it can be reimplemented independently:

* block ``k`` of round ``t`` is
  ``SHA-256(b"fedsust-sample" || seed || t || k)`` with ``seed``, ``t`` and
  ``k`` big-endian unsigned 8-byte integers, ``k`` starting at 0;
* each 32-byte digest yields four big-endian unsigned 64-bit words,
  consumed in order, moving to the next block when exhausted;
* the round's subset is a partial Fisher-Yates shuffle of
  ``[0, ..., N-1]``: for ``i = 0 .. m-1``, draw word ``w`` and swap
  positions ``i`` and ``i + (w mod (N - i))``; the first ``m`` positions,
  sorted ascending, are the selected clients (every client when ``m = N``).

Every block is addressed by ``(seed, t, k)`` alone, so a run draws its
rounds in batches without changing a word: one call makes the digests of a
batch of rounds, hashing each round's ``tag || seed || t`` prefix once, and
the batch's words are read as one big-endian ``uint64`` array. No round
copies all ``N`` positions. A batch holds at most ``_BATCH_WORDS`` words (or
one round's), so it holds fewer rounds as ``m`` grows. One numpy step,
swapping position ``i`` of every round of the batch at once, costs about as
much as eight list swaps: a batch of at least ``_VECTOR_ROUNDS`` rounds is
swapped in ``m`` such steps over compact per-round slots, and a smaller one
(``m`` above ``_BATCH_WORDS / 8``, a short run, or a run's last batch) round
by round in a list, the values at swap targets ``>= m`` in a dict, as
:func:`sample_clients` swaps one round's words from a :class:`SelectionStream`.

Label stream
------------
Synthetic label splits come from one run-wide Philox4x64-10 stream
(Salmon et al., SC'11), also documented for reimplementation:

* the key is the first two big-endian unsigned 64-bit words of
  ``SHA-256(b"fedsust-labels" || seed)``, ``seed`` as above;
* block ``b = 0, 1, ...`` is Philox4x64-10 of the counter ``(b + 1, 0, 0, 0)``
  (numpy's convention: the counter is incremented before each block); its
  four output words are consumed in order;
* word ``u`` becomes the double ``(u >> 11) * 2**-53``, and with ``k``
  classes client ``c``'s proportions are doubles ``c*k .. c*k + k - 1``;
* a row ``p_0 .. p_(k-1)`` is scaled as ``raw_j = (p_j / s) * dataset_size``
  with ``s = (..((p_0 + p_1) + p_2) ..) + p_(k-1)`` summed left to right;
  ``count_j = floor(raw_j)``, and the shortfall ``dataset_size - sum(count)``
  goes one each to the largest remainders ``raw_j - count_j``, ties to the
  lower class index. Class ``j`` is labelled ``class_j``; zero counts are
  omitted.

Client records
--------------
Every client is hashed once per run under :func:`run_salt`, by one
:func:`hash_client_ids` pass that writes the fleet's 8-byte digests into one
``bytes``. One stable argsort of them as big-endian integers sorts the fleet
by node id (16 lowercase hex characters sort as the integer they spell), and
the sorted digests are hex-encoded once: the node ids are one text in node-id
order, and an id becomes a ``str`` only when an output writes its row. The
node id of a client's emission rows is also its key in the factsheet.
Per-client data is held in columns by :class:`ClientTable`, whose ``node_ids``
view reads that text by client; the factsheet's writer slices each row block's
ids from it, and the run's emissions log keeps it uncopied, node ``r`` (and
its price group) for the client of node-id rank ``r``, so each batch of rounds
is logged as drawn: an int32 array of ranks, each row sorted. A fleet whose
ids collide writes its CSV sorted. Each client's rounds drawn are the log's
count of its node, held by the table in node-id order and read by
:class:`SelectionCounts` by node id.

Set-up resolves each hardware and location mix entry once, in
:func:`price_fleet`, which every command line command also runs. It prices
every row a run can log, the server's aggregation row included, so the
rounds only append rows priced at set-up. Each mix entry takes a run of
consecutive client indices, its largest-remainder share of the fleet, so a
client's rows are those of its (hardware, location) pair, its price group:
one integer a client, in node-id order, for the log. A phase whose duration,
energy or CO2eq overflows is a validation error, not a failed run, and so is
a run whose totals could: ``total_rounds x (sample_size x the largest client
round + the server row)`` bounds the energy and CO2eq totals, and
``total_rounds x`` the training duration bounds each client's training time.

numpy is imported on first call by the simulator's functions (the rounds,
the label stream and :func:`aggregate_model`), so the commands that never
simulate do not load it. The label stream is drawn and rounded in row
blocks of at most ``_LABEL_BLOCK_CELLS`` cells (or one row) into one result
array.
"""

from __future__ import annotations

import hashlib
import io
import math
import struct
from collections.abc import Mapping
from typing import TYPE_CHECKING, NamedTuple

from .config import ConfigError, FederationConfig, FrozenRecord
from .emissions import EmissionsLog, NodeIds, energy_to_co2, estimate_energy
# track_phase is unused here; bench/tracer.py patches fedsim.track_phase
from .emissions import track_phase  # noqa: F401
from .refdata import ReferenceTables

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "ClientTable",
    "FederationState",
    "SelectionCounts",
    "SelectionStream",
    "SimulationError",
    "aggregate_model",
    "client_class_counts",
    "fleet_class_counts",
    "hash_client_id",
    "hash_client_ids",
    "hash_label",
    "price_fleet",
    "run_federation",
    "run_salt",
    "sample_clients",
]

_SAMPLE_TAG = b"fedsust-sample"
_LABEL_TAG = b"fedsust-labels"
_SALT_TAG = b"fedsust-salt"


class SimulationError(ValueError):
    """Invalid simulator input."""


# Most stream words drawn at once: a batch of rounds holds at most this many (or one round).
_BATCH_WORDS = 1 << 16
# Fewest rounds a batch swaps in numpy steps; a smaller batch swaps a list (module docstring).
_VECTOR_ROUNDS = 8


def _digests(seed: int, rounds, blocks: range) -> bytes:
    """The selection stream's blocks ``blocks`` of each round in ``rounds``, round by round.

    The ``tag || seed || t`` prefix is hashed once per round and copied for each block.
    """
    head = _SAMPLE_TAG + seed.to_bytes(8, "big")
    counters = [k.to_bytes(8, "big") for k in blocks]
    digests = []
    for t in rounds:
        prefix = hashlib.sha256(head + t.to_bytes(8, "big"))
        for counter in counters:
            block = prefix.copy()
            block.update(counter)
            digests.append(block.digest())
    return b"".join(digests)


class SelectionStream:
    """Counter-based 64-bit word stream for one round's client draw."""

    def __init__(self, seed: int, round_index: int):
        if not 0 <= seed < 2**64:
            raise SimulationError(f"seed must be an unsigned 64-bit integer, got {seed}")
        if round_index < 0:
            raise SimulationError(f"round index must be >= 0, got {round_index}")
        self._seed = seed
        self._round = round_index
        self._counter = 0
        self._words: list[int] = []  # the current block's unread words, in order

    def take(self, count: int) -> list[int]:
        """The next ``count`` words, as ``count`` calls of :meth:`next_u64` return them,
        unpacked in one call from the digests of every block they need."""
        words = self._words
        if len(words) < count:
            blocks = range(self._counter, self._counter + (count - len(words) + 3) // 4)
            self._counter = blocks.stop
            digests = _digests(self._seed, (self._round,), blocks)
            words = [*words, *struct.unpack(f">{4 * len(blocks)}Q", digests)]
        self._words = words[count:]
        return words[:count]

    def next_u64(self) -> int:
        return self.take(1)[0]


def _draw_batch(words: np.ndarray, num_clients: int, relabel: np.ndarray | None = None) -> np.ndarray:
    """Row ``b`` of the result is the documented partial Fisher-Yates draw made with row
    ``b`` of the ``(rounds, m)`` word array: the values left at positions ``0 .. m-1`` of
    ``[0, ..., num_clients - 1]``, mapped through ``relabel`` when given, sorted ascending.

    At least ``_VECTOR_ROUNDS`` rounds are swapped together, in ``m`` vectorized steps
    over compact per-round slots: a round's positions ``0 .. m-1``, then one slot per
    distinct swap target ``>= m``, holding that position's value. Fewer are swapped
    round by round by :func:`_swapped`. No round copies the whole arrangement.
    """
    import numpy as np

    rounds, m = words.shape
    steps = np.arange(m, dtype=np.uint64)
    targets = (steps + words % (np.uint64(num_clients) - steps)).astype(np.int64)
    if rounds >= _VECTOR_ROUNDS:
        # round b's position i < m is slot b*m + i; its distinct targets >= m follow all of those
        row = np.arange(rounds, dtype=np.int64)[:, None]
        slots = row * m + targets
        beyond = targets >= m
        distinct, inverse = np.unique((row * num_clients + targets)[beyond], return_inverse=True)
        slots[beyond] = rounds * m + inverse
        values = np.concatenate((np.tile(np.arange(m, dtype=np.int64), rounds), distinct % num_clients))
        for i, j in zip((row * m + np.arange(m)).T.copy(), slots.T.copy()):  # step i, every round at once
            values[i], values[j] = values[j], values[i]
        picked = values[:rounds * m].reshape(rounds, m)
    else:
        picked = np.array([_swapped(row) for row in targets.tolist()])
    return np.sort(picked if relabel is None else relabel[picked], axis=1)


def _swapped(targets: list[int]) -> list[int]:
    """The values at positions ``0 .. m-1`` of ``[0, 1, ...]`` after swapping position ``i``
    with ``targets[i]`` for each ``i < m``, the values at targets ``>= m`` held in a dict."""
    m = len(targets)
    values, beyond = list(range(m)), {}
    for i, j in enumerate(targets):
        if j < m:
            values[i], values[j] = values[j], values[i]
        else:
            values[i], beyond[j] = beyond.get(j, j), values[i]
    return values


def _batches(seed: int, rounds: int, num_clients: int, sample_size: int,
             relabel: np.ndarray | None = None):
    """Yield ``(batch, drawn)``: consecutive ranges of rounds ``1 .. rounds`` and, row by
    row, each round's draw as :func:`_draw_batch` gives it, holding at most
    ``_BATCH_WORDS`` words (or one round's) at a time."""
    import numpy as np

    blocks = range((sample_size + 3) // 4)  # the stream blocks a round reads
    per_batch = max(1, _BATCH_WORDS // (4 * len(blocks)))
    for first in range(1, rounds + 1, per_batch):
        batch = range(first, min(first + per_batch, rounds + 1))
        words = np.frombuffer(_digests(seed, batch, blocks), dtype=">u8").reshape(len(batch), -1)
        yield batch, _draw_batch(words[:, :sample_size], num_clients, relabel)


def sample_clients(num_clients: int, sample_size: int, stream: SelectionStream) -> tuple[int, ...]:
    """Draw a uniform ``sample_size``-subset of ``range(num_clients)``, sorted.

    The swaps are :func:`_swapped`'s. A full draw picks every client, reading no words.
    """
    if sample_size < 1 or sample_size > num_clients:
        raise SimulationError(
            f"sample size {sample_size} must lie in [1, num_clients={num_clients}]"
        )
    if sample_size == num_clients:
        return tuple(range(num_clients))
    words = stream.take(sample_size)
    return tuple(sorted(_swapped([i + w % (num_clients - i) for i, w in enumerate(words)])))


def aggregate_model(updates) -> np.ndarray:
    """Element-wise arithmetic mean of equal-length parameter vectors.

    ``updates`` is a sequence of vectors or an ``(m, L)`` array, one update
    per row.
    """
    import numpy as np

    try:
        stacked = np.asarray(updates, dtype=np.float64)
    except ValueError:
        raise SimulationError("updates must be equal-length vectors") from None
    if stacked.ndim != 2 or not len(stacked):
        raise SimulationError(f"expected a non-empty list of vectors, got shape {stacked.shape}")
    return stacked.mean(axis=0)


def run_salt(seed: int) -> bytes:
    """Per-run hashing salt, derived from the seed and recorded nowhere."""
    return hashlib.sha256(_SALT_TAG + seed.to_bytes(8, "big")).digest()


def hash_client_id(salt: bytes, client_index: int) -> str:
    """Salted hash under which a client appears in any output."""
    return hashlib.sha256(salt + b"client:" + client_index.to_bytes(8, "big")).hexdigest()[:16]


def hash_client_ids(salt: bytes, num_clients: int) -> bytes:
    """The 8-byte digests of clients ``0 .. num_clients - 1`` in one ``bytes``, client ``c``'s at
    ``[8c, 8c + 8)``, whose hex is its :func:`hash_client_id`; the salted prefix is hashed once."""
    prefix = hashlib.sha256(salt + b"client:")
    out = io.BytesIO()
    for c in range(num_clients):
        digest = prefix.copy()
        digest.update(c.to_bytes(8, "big"))
        out.write(digest.digest()[:8])
    return out.getvalue()


def hash_label(salt: bytes, label: str) -> str:
    """Salted hash under which a class label appears in any output."""
    return hashlib.sha256(salt + b"label:" + label.encode("utf-8")).hexdigest()[:16]


# Most label cells drawn and rounded at once, bounding the draw's temporaries.
_LABEL_BLOCK_CELLS = 1 << 14


def _label_bit_generator(seed: int) -> np.random.Philox:
    """The run's label stream, positioned at its first word."""
    import numpy as np

    digest = hashlib.sha256(_LABEL_TAG + seed.to_bytes(8, "big")).digest()
    key = np.array([int.from_bytes(digest[0:8], "big"), int.from_bytes(digest[8:16], "big")],
                   dtype=np.uint64)
    return np.random.Philox(key=key)


def _largest_remainder(props: np.ndarray, dataset_size: int) -> np.ndarray:
    """Round each row of proportions to int64 counts summing to ``dataset_size``."""
    import numpy as np

    # summed left to right, so a row's total does not depend on the batch shape
    total = np.cumsum(props, axis=1)[:, -1:]
    raw = (props / total) * dataset_size
    counts = np.floor(raw).astype(np.int64)
    shortfall = dataset_size - counts.sum(axis=1, keepdims=True)
    order = np.argsort(-(raw - counts), axis=1, kind="stable")  # ties: lower class first
    bump = np.zeros_like(counts)
    np.put_along_axis(bump, order, np.arange(props.shape[1]) < shortfall, axis=1)
    return counts + bump


def fleet_class_counts(seed: int, num_clients: int, dataset_size: int, num_classes: int) -> np.ndarray:
    """Every client's synthetic per-class sample counts, one row per client.

    Row ``c`` is client ``c``'s split of its ``dataset_size`` samples over
    ``num_classes`` classes, drawn from the label stream (module docstring),
    so fleets are label-imbalanced as real federations are. The rows are drawn
    and rounded in blocks of at most ``_LABEL_BLOCK_CELLS`` cells, written into
    the one result array; a row does not depend on the block it falls in.
    """
    import numpy as np

    gen = np.random.Generator(_label_bit_generator(seed))
    counts = np.empty((num_clients, num_classes), dtype=np.int64)
    rows = max(1, _LABEL_BLOCK_CELLS // num_classes)
    for first in range(0, num_clients, rows):
        block = counts[first:first + rows]
        block[...] = _largest_remainder(gen.random(block.shape), dataset_size)
    return counts


def client_class_counts(seed: int, client_index: int, dataset_size: int, num_classes: int) -> dict[str, int]:
    """One client's row of :func:`fleet_class_counts`, as ``{"class_j": count}``.

    Zero counts are omitted; ``sum(counts) == dataset_size`` exactly.
    """
    import numpy as np

    if client_index < 0:
        raise SimulationError(f"client index must be >= 0, got {client_index}")
    bits = _label_bit_generator(seed)
    offset = client_index * num_classes
    bits.advance(offset // 4)
    bits.random_raw(offset % 4)
    row = _largest_remainder(np.random.Generator(bits).random((1, num_classes)), dataset_size)[0]
    return {f"class_{j}": int(v) for j, v in enumerate(row) if v > 0}


class ClientTable(FrozenRecord):
    """Per-client columns of a run, row ``c`` for client index ``c``.

    ``node_ids[c]`` is the client's salted hash, read from the text ``node_ids.text``
    of 16-character hex ids in node-id order (given as that text or a list by client),
    ``class_counts[c, j]`` its samples of class ``j``, whose salted hash is ``labels[j]``;
    the int array ``node_order`` lists the rows sorted by node id, the factsheet's order,
    and ``counts[r]`` is the rounds client ``node_order[r]`` was drawn in. With the run's
    ``rounds``, ``dataset_size`` and per-round ``train_s`` these determine its
    factsheet entry: ``participation_rate`` is its count over ``rounds``, and
    ``avg_training_time_s`` is ``train_s`` summed count times and divided by
    the count (0.0 if never drawn). A table compares and hashes by identity.
    """

    __slots__ = ("node_ids", "node_order", "counts", "class_counts", "labels", "rounds", "dataset_size",
                 "train_s", "_row_of")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, node_ids: str | list[str], node_order, counts: list[int], class_counts,
                 labels: list[str], rounds: int, dataset_size: int, train_s: float) -> None:
        import numpy as np

        order = np.asarray(node_order, dtype=np.intp)
        if not isinstance(node_ids, str):
            node_ids = [node_ids[c] for c in order.tolist()]
            if {*map(len, node_ids)} - {16} or "".join(node_ids).strip("0123456789abcdef"):
                raise SimulationError("node ids must be 16 lowercase hex characters each")
            node_ids = "".join(node_ids)
        ranks = np.empty_like(order)
        ranks[order] = np.arange(len(order))
        init = object.__setattr__
        init(self, "node_ids", NodeIds(node_ids, ranks))
        init(self, "node_order", order)
        init(self, "counts", counts)
        init(self, "class_counts", class_counts)
        init(self, "labels", labels)
        init(self, "rounds", rounds)
        init(self, "dataset_size", dataset_size)
        init(self, "train_s", train_s)
        init(self, "_row_of", None)

    def __len__(self) -> int:
        return len(self.node_ids)

    @property
    def row_of(self) -> dict[str, int]:
        """Node id -> its row of ``counts``, its position in ``node_order``; built on first use."""
        if self._row_of is None:
            text = self.node_ids.text
            object.__setattr__(self, "_row_of", {text[at:at + 16]: r for r, at in enumerate(range(0, len(text), 16))})
        return self._row_of


class SelectionCounts(Mapping):
    """Node id -> rounds drawn, read from a :class:`ClientTable`'s columns."""

    def __init__(self, table: ClientTable):
        self.table = table

    def __len__(self) -> int:
        return len(self.table)

    def __iter__(self):
        return iter(self.table.node_ids)

    def __getitem__(self, node_id: str) -> int:
        return self.table.counts[self.table.row_of[node_id]]


class FederationState:
    """Final simulator state after the last round.

    ``clients`` holds the per-client columns; ``selection_counts`` reads them
    as a mapping from node id, the key the client's emission rows carry, to
    the rounds it was drawn in. ``class_distribution`` maps each class's
    salted hash to its fleet-wide sample count, zero counts omitted.
    """

    __slots__ = ("round", "class_distribution", "emissions", "clients")

    def __init__(self, round: int, class_distribution: dict[str, int], emissions: EmissionsLog,
                 clients: ClientTable) -> None:
        self.round = round
        self.class_distribution = class_distribution
        self.emissions = emissions
        self.clients = clients

    @property
    def selection_counts(self) -> SelectionCounts:
        return SelectionCounts(self.clients)


def _assign_by_share(mix: tuple[tuple[float, object], ...], population: int) -> list[int]:
    """Deterministic largest-remainder split of ``population`` clients over a share mix: each
    entry's number of clients, in mix order. The entries take consecutive client indices."""
    raw = [share * population for share, _ in mix]
    counts = [math.floor(r) for r in raw]
    shortfall = population - sum(counts)
    order = sorted(range(len(mix)), key=lambda i: (-(raw[i] - counts[i]), i))
    for i in order[:shortfall]:
        counts[i] += 1
    return counts


# The fields each phase's duration, energy and CO2eq grow with, for the error message.
_PHASE_FIELDS = {
    "training": "energy_model.train_seconds_per_unit, local_rounds, dataset_size, model_size, "
                "client_hardware, client_locations",
    "communication": "energy_model.comm_energy_per_byte, model_size, client_locations",
    "aggregation": "energy_model.agg_seconds_per_unit, sample_size, model_size, server_hardware, "
                   "server_location",
}


def _finite(value: float, phase: str, quantity: str, run_fields: str = "") -> float:
    if not math.isfinite(value):
        raise ConfigError(f"the {phase} phase's {quantity} is {value!r}, not a finite float; "
                          f"it grows with fields {run_fields}{_PHASE_FIELDS[phase]}")
    return value


class FleetPrices(NamedTuple):
    """What :func:`price_fleet` resolved and priced: the client mixes with each entry's
    TDP and grid intensity, a client's rows in CSV order for each (TDP, intensity) pair,
    the training duration, and the server's aggregation row, each row
    ``(phase, duration_s, energy_kwh, intensity, co2eq_g)``."""

    client_tdp: tuple[tuple[float, float], ...]
    client_intensity: tuple[tuple[float, float], ...]
    client_rows: dict[tuple[float, float], tuple[tuple, ...]]
    train_s: float
    server_row: tuple


def price_fleet(config: FederationConfig, tables: ReferenceTables) -> FleetPrices:
    """Resolve each mix entry once and price every row a run of ``config`` can log.

    Prices are keyed by value: each distinct (TDP, grid intensity) pair of the
    two client mixes is priced once, and so is the server's aggregation. A
    duration, energy or CO2eq that is not a finite float raises ``ConfigError``,
    and so does a bound on the run's totals that is not.
    """
    em = config.energy_model
    utilization = em.effective_utilization()
    locations, grid = tables.locations, tables.grid
    client_tdp = tuple((share, tables.hardware.lookup(hw).tdp) for share, hw in config.client_hardware)
    client_intensity = tuple(
        (share, grid.lookup_intensity(locations.resolve(loc, grid))) for share, loc in config.client_locations
    )
    train_s = _finite(em.train_seconds_per_unit * config.local_rounds * config.dataset_size
                      * (config.model_size / 1e6), "training", "duration_s")
    comm_energy = em.comm_energy_per_byte * (8.0 * config.model_size)  # up and down, 4 bytes/parameter
    if comm_energy > 0.0:  # unpriced when nan, as 0 * inf
        _finite(comm_energy, "communication", "energy_kwh")
    client_rows = {}
    for tdp in dict.fromkeys(value for _, value in client_tdp):
        energy = _finite(estimate_energy(tdp, utilization, train_s), "training", "energy_kwh")
        for intensity in dict.fromkeys(value for _, value in client_intensity):
            co2 = _finite(energy_to_co2(energy, intensity), "training", "co2eq_g")
            rows = (("training", train_s, energy, intensity, co2),)
            if comm_energy > 0.0:
                co2 = _finite(energy_to_co2(comm_energy, intensity), "communication", "co2eq_g")
                rows = (("communication", 0.0, comm_energy, intensity, co2), *rows)
            client_rows[tdp, intensity] = rows

    server_tdp = tables.hardware.lookup(config.server_hardware).tdp
    server_intensity = float(grid.lookup_intensity(locations.resolve(config.server_location, grid)))
    agg_s = _finite(em.agg_seconds_per_unit * config.sample_size * (config.model_size / 1e6),
                    "aggregation", "duration_s")
    agg_energy = _finite(estimate_energy(server_tdp, utilization, agg_s), "aggregation", "energy_kwh")
    agg_co2 = _finite(energy_to_co2(agg_energy, server_intensity), "aggregation", "co2eq_g")
    server_row = ("aggregation", agg_s, agg_energy, server_intensity, agg_co2)
    _bound_run_totals(config, client_rows, train_s, server_row)
    return FleetPrices(client_tdp, client_intensity, client_rows, train_s, server_row)


def _bound_run_totals(config: FederationConfig, client_rows: dict, train_s: float, server_row: tuple):
    """Raise ``ConfigError`` unless the run's totals stay finite floats.

    No price is negative, so ``total_rounds x (sample_size x the largest client
    round + the server row)`` bounds the energy and CO2eq totals, and
    ``total_rounds x train_s`` bounds a client's summed training time. An
    overflow names the phase with the largest share of a round.
    """
    rounds, m = config.total_rounds, config.sample_size
    _finite(rounds * train_s, "training", "run total duration_s", "total_rounds, ")
    for index, quantity in ((2, "energy_kwh"), (4, "co2eq_g")):
        heaviest = max(client_rows.values(), key=lambda rows: sum(row[index] for row in rows))
        shares = [(m * row[index], row[0]) for row in heaviest] + [(server_row[index], "aggregation")]
        bound = rounds * sum(share for share, _ in shares)
        if not math.isfinite(bound):
            _finite(bound, max(shares)[1], f"run total {quantity}", "total_rounds, sample_size, ")


def run_federation(config: FederationConfig, tables: ReferenceTables | None = None,
                   prices: FleetPrices | None = None) -> FederationState:
    """Execute the orchestration loop for ``config.total_rounds`` rounds.

    Per round, serially: draw ``sample_size`` clients without replacement,
    log a training row per drawn client (plus a communication row when
    communication energy is priced) and one server aggregation row.
    ``prices`` is :func:`price_fleet`'s result for ``config``, priced from
    ``tables`` when absent; pricing resolves each mix entry once, so an
    unresolvable entry fails even when no client gets it. Set-up hashes every
    client once and sorts the node ids once; the log's client nodes are in
    that order. Each batch of rounds drawn by :func:`_draw_batch` is logged as
    its array of sorted node-id ranks, and a full-participation run as one row
    broadcast down every round; the selection counts are the log's. Label splits
    are drawn for the whole fleet in row blocks, and each class label is hashed
    once per run.
    Every random draw is addressed by the seed and a round or client index,
    so results depend on nothing but ``(config, seed)``.
    """
    import numpy as np

    if prices is None:
        prices = price_fleet(config, tables or ReferenceTables.load())

    n, m, rounds, seed = config.num_clients, config.sample_size, config.total_rounds, config.seed
    salt = run_salt(seed)

    digests = np.frombuffer(hash_client_ids(salt, n), dtype=">u8")
    order = np.argsort(digests, kind="stable")
    # 16 lowercase hex characters sort as the big-endian integer they spell: the ids in node-id order
    node_ids = digests[order].data.hex()
    ranks = np.empty(n, dtype=np.int32)  # so a batch of drawn ranks is int32 as the log keeps it
    ranks[order] = np.arange(n)
    # client c has the hardware entry whose consecutive indices hold c, and the location entry;
    # its price group is that (hardware, location) pair, listed in node-id order
    hardware = np.searchsorted(np.cumsum(_assign_by_share(prices.client_tdp, n)), order, side="right")
    location = np.searchsorted(np.cumsum(_assign_by_share(prices.client_intensity, n)), order, side="right")
    group_rows = [prices.client_rows[tdp, intensity]
                  for _, tdp in prices.client_tdp for _, intensity in prices.client_intensity]
    # the log's node r is the client of node-id rank r, so a round's block is its sorted ranks
    log = EmissionsLog(NodeIds(node_ids), hardware * len(prices.client_intensity) + location, group_rows,
                       prices.server_row)
    label_counts = fleet_class_counts(seed, n, config.dataset_size, config.num_label_classes)
    labels = [f"class_{j}" for j in range(config.num_label_classes)]
    hashed_labels = [hash_label(salt, label) for label in labels]
    if len(set(hashed_labels)) < len(hashed_labels):
        import logging  # only here, so no command that runs without a collision loads it

        logging.getLogger(__name__).warning(
            "label hash collision: two of the %d class labels map to one hash", len(labels))
    class_distribution = {
        hashed: total for hashed, total in zip(hashed_labels, label_counts.sum(axis=0).tolist()) if total
    }

    if m == n:  # a full draw: every round logs every rank, no words read
        log.add_rounds(1, np.broadcast_to(np.arange(n, dtype=np.int32), (rounds, n)))
    else:
        for batch, drawn in _batches(seed, rounds, n, m, ranks):
            log.add_rounds(batch.start, drawn)
    clients = ClientTable(node_ids, order, log.times_logged()[:n], label_counts, hashed_labels,
                          rounds, config.dataset_size, prices.train_s)
    return FederationState(round=rounds, class_distribution=class_distribution, emissions=log,
                           clients=clients)
