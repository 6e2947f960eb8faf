"""Build the per-iteration stage DAG from a partition plan and a batch.

Dataflow encoded here (matching Fig. 5c of the paper):

* Within one (microbatch, module, sub-microbatch): forward stages chain
  chunk 0 rank 0 -> rank P-1 -> chunk 1 rank 0 -> ... ; backward stages
  chain in exact reverse.
* Across modules: the first forward stage of a level-``l+1`` module
  depends on the *last* forward stage of every level-``l`` sub-microbatch
  of the same microbatch (adapter outputs gathered back to rank 0).
  Backward mirrors this: upstream backward starts after downstream
  backward finishes at rank 0.
* The loss module's backward follows its own forward directly.

Stages are emitted in a topological order (uid ascending), which the
:class:`repro.core.stages.IterationGraph` constructor verifies.

Each microbatch's stages and pairs form one contiguous block whose
dependency edges stay inside it, and the block is a pure function of the
microbatch's shape (its metadata without the index).  Given a
:class:`~repro.core.signature.BlockMemo`, the builder records a repeated
shape's block once as a block-relative :class:`GraphFragment` and
assembles later sightings from it instead of re-emitting them.  It can
also hand back one :class:`~repro.core.signature.BlockRecord` per block,
so the signature is computed from the spans the builder laid down.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.cluster.topology import ClusterSpec, ParallelConfig
from repro.data.batching import (
    GlobalBatch,
    Microbatch,
    microbatch_total_flops,
    module_workload,
)
from repro.models.flops import boundary_p2p_bytes, training_state_bytes
from repro.models.lmm import LMMArchitecture
from repro.core.partitioner import ModalityPartitioner, PartitionPlan
from repro.core.signature import BlockMemo, BlockRecord, shape_key
from repro.core.stages import (
    Direction,
    IterationGraph,
    SegmentKey,
    StagePair,
    StageTask,
)
from repro.sim.costmodel import CostModel, StageCost

#: Fraction of device memory usable for weights + activations (the rest
#: covers CUDA context, NCCL buffers and fragmentation).
MEMORY_UTILIZATION = 0.92

#: Under decoupled backward, the input-gradient (dgrad) share of the
#: backward latency; the remainder is the deferrable weight gradient.
DGRAD_SHARE = 0.55


@dataclass(frozen=True)
class GraphFragment:
    """One microbatch shape's block, with block-relative identifiers.

    Attributes:
        keys: The block's distinct segment-key fields, ``(module,
            sub_index, chunk, direction)``; the microbatch index is
            supplied at assembly.
        stages: Per stage, in emission order: ``(key slot, rank, pair
            offset, dependency offsets, p2p bytes, latency share,
            releases memory)``.
        pairs: Per pair, in emission order: ``(module, sub_index, chunk,
            rank, num_layers, cost, instances, seq, context, default
            candidate)``.
        flops: The microbatch's train-step FLOPs.
        digest: The block's signature digest (see
            :class:`~repro.core.signature.BlockMemo`).

    Everything here is shared by every graph assembled from the fragment
    (the :class:`StageCost` and :class:`StrategyCandidate` objects
    included) and never written; the stage and pair objects, which
    searches mutate, are built fresh each time.
    """

    keys: Tuple[Tuple, ...]
    stages: Tuple[Tuple, ...]
    pairs: Tuple[Tuple, ...]
    flops: float
    digest: str


class _Builder:
    """Single-use helper accumulating stages and pairs for one batch."""

    def __init__(
        self,
        arch: LMMArchitecture,
        plan: PartitionPlan,
        cluster: ClusterSpec,
        parallel: ParallelConfig,
        cost_model: CostModel,
        decoupled_backward: bool = False,
    ) -> None:
        self.arch = arch
        self.plan = plan
        self.cluster = cluster
        self.parallel = parallel
        self.cost_model = cost_model
        self.decoupled_backward = decoupled_backward
        self.stages: List[StageTask] = []
        self.pairs: List[StagePair] = []
        self._cost_cache: Dict[Tuple, StageCost] = {}

    def stage_cost(
        self, module: str, layers: int, instances: int, seq: int, context: int
    ) -> StageCost:
        key = (module, layers, instances, seq, context)
        cached = self._cost_cache.get(key)
        if cached is None:
            spec = self.arch.binding(module).spec
            cached = self.cost_model.stage_cost(
                self.cluster.gpu,
                spec,
                layers,
                instances,
                seq,
                tp=self.parallel.tp,
                context=context,
            )
            self._cost_cache[key] = cached
        return cached

    def _new_stage(
        self,
        key: SegmentKey,
        rank: int,
        pair_id: int,
        deps: Tuple[int, ...],
        p2p_bytes: float,
    ) -> StageTask:
        stage = StageTask(
            uid=len(self.stages),
            key=key,
            rank=rank,
            pair_id=pair_id,
            deps=deps,
            p2p_bytes=p2p_bytes,
        )
        self.stages.append(stage)
        return stage

    def emit_forward_chain(
        self,
        microbatch: Microbatch,
        module: str,
        sub_index: int,
        instances: int,
        entry_deps: Tuple[int, ...],
        entry_bytes: float,
    ) -> Tuple[List[int], List[int]]:
        """Emit the forward traversal of one sub-microbatch.

        Returns:
            (stage_uids in traversal order, pair_ids in traversal order).
        """
        binding = self.arch.binding(module)
        mp = self.plan.partition(module)
        p = self.plan.num_ranks
        _n, seq, context = module_workload(binding, microbatch)
        uids: List[int] = []
        pair_ids: List[int] = []
        prev_uid: Optional[int] = None
        hop_bytes = boundary_p2p_bytes(binding.spec, instances, seq)
        for segment in range(mp.num_segments):
            for rank in range(p):
                layers = mp.chunk_layers(segment, rank, p)
                cost = self.stage_cost(module, layers, instances, seq, context)
                pair = StagePair(
                    pair_id=len(self.pairs),
                    microbatch=microbatch.index,
                    module=module,
                    sub_index=sub_index,
                    chunk=segment,
                    rank=rank,
                    num_layers=layers,
                    cost=cost,
                    instances=instances,
                    seq=seq,
                    context=context,
                )
                self.pairs.append(pair)
                if prev_uid is None:
                    deps = entry_deps
                    p2p = entry_bytes
                else:
                    deps = (prev_uid,)
                    p2p = hop_bytes
                key = SegmentKey(
                    microbatch.index, module, sub_index, segment, Direction.FORWARD
                )
                stage = self._new_stage(key, rank, pair.pair_id, deps, p2p)
                prev_uid = stage.uid
                uids.append(stage.uid)
                pair_ids.append(pair.pair_id)
        return uids, pair_ids

    def emit_backward_chain(
        self,
        microbatch: Microbatch,
        module: str,
        sub_index: int,
        instances: int,
        fw_uids: List[int],
        fw_pair_ids: List[int],
        entry_deps: Tuple[int, ...],
        entry_bytes: float,
    ) -> List[int]:
        """Emit the backward traversal (reverse of the forward chain).

        Under decoupled backward (zero-bubble style), each position emits
        a dgrad stage — the only stage on the inter-rank critical path —
        plus a weight-gradient stage the scheduler may defer into
        bubbles; activations stay resident until the wgrad completes.
        """
        binding = self.arch.binding(module)
        mp = self.plan.partition(module)
        p = self.plan.num_ranks
        _n, seq, _context = module_workload(binding, microbatch)
        hop_bytes = boundary_p2p_bytes(binding.spec, instances, seq)
        uids: List[int] = []
        prev_uid: Optional[int] = None
        for position in range(len(fw_uids) - 1, -1, -1):
            segment, rank = divmod(position, p)
            fw_uid = fw_uids[position]
            if prev_uid is None:
                deps = tuple(entry_deps) + (fw_uid,)
                p2p = entry_bytes
            else:
                deps = (prev_uid, fw_uid)
                p2p = hop_bytes
            key = SegmentKey(
                microbatch.index, module, sub_index, segment, Direction.BACKWARD
            )
            if not self.decoupled_backward:
                stage = self._new_stage(key, rank, fw_pair_ids[position], deps, p2p)
                prev_uid = stage.uid
                uids.append(stage.uid)
                continue
            dgrad = self._new_stage(key, rank, fw_pair_ids[position], deps, p2p)
            dgrad.latency_share = DGRAD_SHARE
            dgrad.releases_memory = False
            wgrad = self._new_stage(
                key, rank, fw_pair_ids[position], (dgrad.uid,), 0.0
            )
            wgrad.latency_share = 1.0 - DGRAD_SHARE
            prev_uid = dgrad.uid
            uids.append(dgrad.uid)
            uids.append(wgrad.uid)
        return uids

    def emit_microbatch(
        self, microbatch: Microbatch, splits: Dict[str, List[int]]
    ) -> None:
        """Emit all stages of one microbatch, forward then backward."""
        levels = self.arch.levels()
        # Forward sweep, level by level.
        fw_chains: Dict[Tuple[str, int], Tuple[List[int], List[int]]] = {}
        level_exit_uids: List[List[int]] = []  # last fw uid of each sub, per level
        for level_index, level in enumerate(levels):
            exits: List[int] = []
            if level_index == 0:
                entry_deps: Tuple[int, ...] = ()
                entry_bytes = 0.0
            else:
                entry_deps = tuple(level_exit_uids[level_index - 1])
                entry_bytes = self._adapter_bytes(levels, level_index, microbatch)
            for binding in level:
                for sub_index, instances in enumerate(splits.get(binding.name, [])):
                    chain = self.emit_forward_chain(
                        microbatch,
                        binding.name,
                        sub_index,
                        instances,
                        entry_deps,
                        entry_bytes,
                    )
                    fw_chains[(binding.name, sub_index)] = chain
                    exits.append(chain[0][-1])
            level_exit_uids.append(exits)

        # Backward sweep, last level first.
        prev_level_bw_exit: List[int] = []
        for level_index in range(len(levels) - 1, -1, -1):
            exits = []
            entry_deps = tuple(prev_level_bw_exit)
            entry_bytes = (
                self._adapter_bytes(levels, level_index + 1, microbatch)
                if prev_level_bw_exit
                else 0.0
            )
            for binding in levels[level_index]:
                for sub_index, instances in enumerate(splits.get(binding.name, [])):
                    fw_uids, fw_pairs = fw_chains[(binding.name, sub_index)]
                    bw_uids = self.emit_backward_chain(
                        microbatch,
                        binding.name,
                        sub_index,
                        instances,
                        fw_uids,
                        fw_pairs,
                        entry_deps,
                        entry_bytes,
                    )
                    exits.append(bw_uids[-1])
            prev_level_bw_exit = exits

    def _adapter_bytes(self, levels, level_index: int, microbatch: Microbatch) -> float:
        """Bytes crossing the adapter into level ``level_index``."""
        if level_index >= len(levels):
            return 0.0
        target = levels[level_index][0]
        _n, seq, _ctx = module_workload(target, microbatch)
        return boundary_p2p_bytes(target.spec, 1, min(seq, 1 << 16))

    def block_fragment(self, uid_start: int, pair_start: int,
                       flops: float, digest: str) -> GraphFragment:
        """Record the block emitted from ``uid_start`` / ``pair_start``,
        whose signature digest is ``digest``."""
        slots: Dict[Tuple, int] = {}
        stages = []
        for stage in self.stages[uid_start:]:
            key = stage.key
            fields = (key.module, key.sub_index, key.chunk, key.direction)
            stages.append((
                slots.setdefault(fields, len(slots)),
                stage.rank,
                stage.pair_id - pair_start,
                tuple(dep - uid_start for dep in stage.deps),
                stage.p2p_bytes,
                stage.latency_share,
                stage.releases_memory,
            ))
        pairs = tuple(
            (pair.module, pair.sub_index, pair.chunk, pair.rank,
             pair.num_layers, pair.cost, pair.instances, pair.seq,
             pair.context, pair.candidates[0])
            for pair in self.pairs[pair_start:]
        )
        return GraphFragment(
            keys=tuple(slots), stages=tuple(stages), pairs=pairs,
            flops=flops, digest=digest)

    def assemble(self, fragment: GraphFragment, index: int,
                 memo: BlockMemo) -> None:
        """Append microbatch ``index``'s block from its fragment."""
        uid_base = len(self.stages)
        pair_base = len(self.pairs)
        keys = [memo.segment_key(index, fields) for fields in fragment.keys]
        append = self.stages.append
        for uid, (slot, rank, pair, deps, p2p, share, releases) in enumerate(
                fragment.stages, uid_base):
            append(StageTask(uid, keys[slot], rank, pair + pair_base,
                             tuple([dep + uid_base for dep in deps]), p2p,
                             0, share, releases))
        append = self.pairs.append
        for pair_id, (module, sub_index, chunk, rank, layers, cost,
                      instances, seq, context, default) in enumerate(
                fragment.pairs, pair_base):
            append(StagePair(pair_id, index, module, sub_index, chunk, rank,
                             layers, cost, instances, seq, context,
                             [default]))

    def static_bytes_per_rank(self) -> List[float]:
        """Weights + optimizer state resident on each pipeline rank."""
        p = self.plan.num_ranks
        static = [0.0] * p
        for binding in self.arch.bindings:
            mp = self.plan.partition(binding.name)
            per_layer = binding.spec.layer_parameters()
            for segment in range(mp.num_segments):
                for rank in range(p):
                    layers = mp.chunk_layers(segment, rank, p)
                    static[rank] += training_state_bytes(
                        layers * per_layer, tp=self.parallel.tp
                    )
            if binding.spec.vocab_size:
                embed = binding.spec.vocab_size * binding.spec.hidden_size
                static[0] += training_state_bytes(embed, tp=self.parallel.tp)
                static[p - 1] += training_state_bytes(embed, tp=self.parallel.tp)
        return static


def build_iteration_graph(
    arch: LMMArchitecture,
    plan: PartitionPlan,
    batch: GlobalBatch,
    cluster: ClusterSpec,
    parallel: ParallelConfig,
    cost_model: Optional[CostModel] = None,
    partitioner: Optional[ModalityPartitioner] = None,
    memory_utilization: float = MEMORY_UTILIZATION,
    decoupled_backward: bool = False,
    memo: Optional[BlockMemo] = None,
    context: str = "",
    blocks: Optional[List[BlockRecord]] = None,
) -> IterationGraph:
    """Construct the stage DAG for one training iteration.

    Args:
        arch: LMM architecture.
        plan: Offline partition plan (chunk placement, ``B_i``, ``K_i``).
        batch: The iteration's microbatch metadata.
        cluster: Hardware description.
        parallel: 3D-parallel layout.
        cost_model: Latency model (defaults to the uncalibrated analytic
            model).
        partitioner: Reused for the online sub-microbatch split; built on
            demand when omitted.
        memory_utilization: Fraction of HBM usable by training state.
        decoupled_backward: Split backward stages into input-gradient and
            deferrable weight-gradient stages (zero-bubble style) — the
            custom-schedule extension the paper's related-work section
            points at.
        memo: Per-shape memo of one architecture, plan and build
            configuration (see :class:`~repro.core.signature.BlockMemo`):
            a shape with a stored fragment is assembled from it, and a
            shape whose block digest is stored but whose fragment is not
            has its freshly emitted block recorded.  The graph is equal,
            field for field, to one built without it.
        context: The planning-context digest ``memo`` is keyed under.
        blocks: When given, receives one
            :class:`~repro.core.signature.BlockRecord` per microbatch, in
            batch order, emitted or assembled: its uid and pair spans,
            its memo key, and the fragment it was assembled from.
            :func:`~repro.core.signature.compute_signature` fingerprints
            the fresh graph from them without re-splitting it.
    """
    cost_model = cost_model or CostModel()
    if partitioner is None:
        partitioner = ModalityPartitioner(arch, cluster, parallel, cost_model)
    builder = _Builder(arch, plan, cluster, parallel, cost_model,
                       decoupled_backward=decoupled_backward)
    flops: List[float] = []
    for microbatch in batch:
        uid_start, pair_start = len(builder.stages), len(builder.pairs)
        key = (context, shape_key(microbatch)) if memo is not None else None
        fragment = memo.fragment(key) if key is not None else None
        if fragment is not None:
            builder.assemble(fragment, microbatch.index, memo)
            flops.append(fragment.flops)
        else:
            splits = partitioner.split_microbatch(plan, microbatch)
            builder.emit_microbatch(microbatch, splits)
            flops.append(microbatch_total_flops(arch, microbatch))
            digest = memo.get(key) if key is not None else None
            if digest is not None:
                memo.put_fragment(key, builder.block_fragment(
                    uid_start, pair_start, flops[-1], digest))
        if blocks is not None:
            blocks.append(BlockRecord(
                microbatch.index, uid_start, len(builder.stages),
                pair_start, len(builder.pairs), key, fragment))
    graph = IterationGraph(
        num_ranks=parallel.pp,
        stages=builder.stages,
        pairs=builder.pairs,
        static_bytes_per_rank=builder.static_bytes_per_rank(),
        memory_limit_bytes=cluster.gpu.memory_bytes * memory_utilization,
        model_flops=sum(flops),
    )
    return graph
