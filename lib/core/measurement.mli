(** The paper's §4 measurement pipeline, end to end: simulate a month of
    BGP over the scenario, filter session-reset artifacts, and accumulate
    per-(session, prefix) statistics streamingly:

    - {b path changes}: transitions between announcements whose AS {e set}
      differs (the paper's definition of a path change);
    - {b AS residency}: how long each AS spent on the observed path, so
      the 5-minute exposure rule of Figure 3 (right) can be applied;
    - visibility (which sessions learned which prefixes — the T1 dataset
      numbers).

    The dynamics stream can be spiked with extra (attack) updates, which
    are merged in time order — that is how the §5 monitoring experiments
    inject hijacks into an otherwise normal month. *)

type key = { session : Update.session_id; prefix : Prefix.t }

type cell = {
  key : key;
  baseline : Asn.Set.t option;   (** AS set of the initial route *)
  updates : int;                 (** updates seen post-filter — announcements
                                     {e and} withdrawals *)
  path_changes : int;
  residency : (Asn.t * float) list;
      (** total seconds each AS spent on this (session, prefix) path *)
  contiguous : (Asn.t * float) list;
      (** per AS, the longest single contiguous interval it spent on the
          path (always <= its cumulative residency) *)
  final_set : Asn.Set.t option;
}
(** Cells exist only for keys that carried routing state: a baseline route
    at time 0 or at least one announcement. A key that only ever saw
    withdrawals is not materialized. *)

module Key_table : Hashtbl.S with type key = key
(** Hash tables over measurement keys — shared with the [Qs_serve]
    sliding window so both sides key state identically. *)

(** Incremental per-key accumulator — the unit the batch pipeline below
    and the [Qs_serve] sliding window both build on. A key's statistics
    depend only on that key's update subsequence, so any consumer that
    preserves per-key time order reproduces the batch numbers exactly
    (path changes, residency, longest contiguous runs are all computed by
    the same code). *)
module Acc : sig
  type t

  type event = [ `First | `Same | `Changed | `Withdrawn ]
  (** What one update did to the key: first-ever announcement, re-announce
      with an identical AS set, a path change, or a withdrawal. *)

  val create : unit -> t

  val set_baseline : t -> Asn.Set.t -> unit
  (** Register the time-0 table route: sets the baseline AS set, the
      current path, and starts contiguous runs at t = 0. Call before any
      update flows. *)

  val consume : t -> Update.t -> event
  (** Feed one update (per-key time order). Counts it, credits residency
      up to the update's time, and maintains contiguous-run state. *)

  val seal : t -> float -> unit
  (** Close the accumulator at a horizon: credit residency up to it and
      close every open run. Call exactly once, then read {!cell}. *)

  val cell : key -> t -> cell option
  (** Materialize; [None] for a withdraw-only key (no baseline and no
      announcement — nothing a collector could measure). *)

  val baseline : t -> Asn.Set.t option
  val current : t -> Asn.Set.t option
  val updates : t -> int
  val announces : t -> int
  val path_changes : t -> int

  val residency : t -> (Asn.t * float) list
  (** Per-AS cumulative residency credited so far (unsealed: excludes the
      open span since the last update), in unspecified order. *)

  val contiguous : t -> (Asn.t * float) list
  (** Per-AS longest {e completed} run so far (unsealed), in unspecified
      order. A windowed consumer merges these across a key's lives with
      per-AS [max] — runs never span a withdrawal, so the global longest
      run is the max over lives. *)

  val run_start : t -> Asn.t -> float option
  (** Start time of the AS's current on-path run, if it is on the path. *)

  val best_run : t -> Asn.t -> float
  (** Longest {e completed} contiguous run for the AS (0 if none). *)

  val longest_run : t -> at:float -> Asn.t -> float
  (** Longest contiguous run counting the still-open one as if it closed
      at [at] — what a threshold query at time [at] must compare against. *)
end

type t = {
  scenario : Scenario.t;
  duration : float;
  initial : Dynamics.initial;
  cells : cell list;
  dyn_stats : Dynamics.stats;
  filter_stats : Session_reset.stats option;
  visibility : int Prefix.Table.t;
      (** per prefix: number of sessions that ever saw it *)
  n_sessions : int;
}

val run :
  ?dynamics:Dynamics.config ->
  ?filter:Session_reset.config ->
  ?no_filter:bool ->
  ?extra_updates:Update.t list ->
  ?observe:(Update.t -> unit) ->
  Scenario.t -> t
(** Runs the full pipeline (deterministic given the scenario; the RNG
    stream is derived from the scenario seed). [no_filter] disables
    session-reset filtering (the ablation). [observe] sees every
    post-filter update, in per-session time order — attach monitors here.
    [extra_updates] must be time-sorted. *)

val pp_dynamics_summary : Format.formatter -> t -> unit
(** Three-line summary of the run's {!Dynamics.stats}: update counts,
    full recomputations and delta steps, and the horizon accounting
    (post-horizon drops, links still failed at the end). Printed by
    [quicksand path-changes] and the benchmarks. *)

val cells_for_session : t -> Update.session_id -> cell list

val is_tor : t -> Prefix.t -> bool

val changes_of : cell -> int
val extra_ases : ?threshold:float -> cell -> Asn.Set.t
(** ASes whose longest {e contiguous} on-path interval reaches the
    threshold (default 300 s) and that are not in the baseline AS set —
    the paper's "seen for more than five minutes" rule demands a sustained
    appearance, so disjoint short stints do not accumulate. Empty if the
    cell has no baseline (prefix never seen at time 0 on this session). *)

val visibility_fraction : t -> Prefix.t -> float
(** Fraction of sessions on which the prefix was ever visible. *)
