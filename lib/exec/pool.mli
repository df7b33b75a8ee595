(** The deterministic multicore execution engine.

    Every §4 experiment is an embarrassingly parallel sweep — Monte-Carlo
    adversary draws, per-prefix propagations, per-(client, guard) pair
    analyses. This module runs those sweeps over a fixed-size pool of OCaml
    domains, spawned once and reused across calls, under three hard
    guarantees:

    {b Determinism.} Results are written into per-item slots and reduced in
    submission order, never in completion order, so the output of {!map}
    and {!fold} is independent of the worker count and of scheduling. For
    seeded work, {!map_seeded} derives one {!Rng.split} stream per {e item}
    (not per chunk or per worker) before any task runs: a seeded experiment
    is byte-identical at [jobs = 1] and [jobs = N]. A property test in
    [test/test_exec.ml] and the QS305 lint rule enforce this end to end.

    {b Isolation.} Mutable scratch state (a {!Propagate.Workspace.t}, a
    {!Propagate.Delta.scratch}) must never be shared across domains.
    {!per_domain} is the resource combinator for that rule: it lazily
    creates one instance per domain, so a task may freely use {!get} on
    whatever domain it happens to run.

    {b Observability.} {!stats} reports per-domain task counts, busy and
    queue-wait times, and the accumulated wall time of parallel sections;
    the bench harness and the CLI [--jobs] subcommands print it.

    Tasks must be pure apart from per-domain resources and their own
    per-item RNG stream; they must not submit work to the pool they run on
    (detected, raises [Invalid_argument]). *)

type t
(** A pool of [jobs] domains: the caller plus [jobs - 1] spawned workers.
    The workers are spawned by {!create} and live until {!shutdown} (or
    process exit); between calls they block on a condition variable, so an
    idle pool costs nothing. *)

val create : jobs:int -> unit -> t
(** [create ~jobs ()] spawns [jobs - 1] worker domains. [jobs = 1] is the
    sequential pool: no domains are spawned and every task runs inline in
    the caller — by the determinism guarantee it computes exactly what any
    wider pool computes.
    @raise Invalid_argument unless [1 <= jobs <= 512]. *)

val jobs : t -> int
(** The worker count the pool was created with (caller included). *)

val default : unit -> t
(** The shared default pool, created on first use with
    [jobs = Domain.recommended_domain_count ()]. Experiment entry points
    use it when no explicit pool is passed. *)

val with_pool : jobs:int -> (t -> 'a) -> 'a
(** [with_pool ~jobs f] runs [f] over a fresh pool and shuts it down
    afterwards, whatever [f] does. *)

val shutdown : t -> unit
(** Stops and joins the worker domains. Idempotent. Submitting to a shut
    pool raises [Invalid_argument]. *)

(** {1 Parallel sweeps} *)

val map : ?chunk:int -> t -> ('a -> 'b) -> 'a array -> 'b array
(** [map pool f arr] computes [Array.map f arr] with the elements chunked
    over the pool's domains. [f] runs once per element, on an unspecified
    domain; element order in the result is the submission order. [chunk]
    (default: aiming at ~8 chunks per domain) only affects scheduling
    granularity, never the result.
    @raise Invalid_argument if [chunk <= 0], if called from inside a pool
    task, or if the pool is shut down. Exceptions raised by [f] are
    re-raised in the caller after the sweep drains. *)

val map_list : ?chunk:int -> t -> ('a -> 'b) -> 'a list -> 'b list
(** {!map} over a list (element order preserved). *)

val map_seeded :
  ?chunk:int -> t -> rng:Rng.t -> (Rng.t -> 'a -> 'b) -> 'a array -> 'b array
(** [map_seeded pool ~rng f arr] is the deterministic seeded sweep: it
    first splits one sibling stream per element off [rng] (in index order,
    advancing [rng] by [Array.length arr] splits), then maps
    [f stream.(i) arr.(i)] over the pool. Because streams are attached to
    items, not to workers or chunks, the result is byte-identical at any
    [jobs] and any [chunk]. *)

val fold :
  ?chunk:int -> t -> f:('a -> 'b) -> reduce:('acc -> 'b -> 'acc) ->
  init:'acc -> 'a array -> 'acc
(** [fold pool ~f ~reduce ~init arr] maps [f] in parallel, then reduces
    the per-item results {e sequentially, in submission order} in the
    caller. [reduce] therefore needs no commutativity: floating-point
    accumulation, list building and "first wins" logic are all stable
    across worker counts. *)

(** {1 Per-domain resources} *)

type 'r per_domain
(** A lazily instantiated resource with one instance per domain — the
    "one workspace per domain" rule of {!Propagate.Workspace} made a
    combinator. Instances are created on a domain's first {!get} and
    reused for the value's lifetime; they are never migrated or shared. *)

val per_domain : (unit -> 'r) -> 'r per_domain
(** [per_domain make] declares a per-domain resource. [make] runs on the
    domain that first touches the resource; it must not call {!get} on the
    resource being created. *)

val get : 'r per_domain -> 'r
(** This domain's instance, created on first use. Callable from pool tasks
    and from plain sequential code alike. *)

(** {1 Observability} *)

type domain_stats = {
  chunks : int;   (** chunks this domain executed *)
  busy : float;   (** seconds spent running tasks *)
  wait : float;   (** seconds spent blocked waiting for work (workers only) *)
}

type stats = {
  jobs : int;
  calls : int;            (** map/fold sweeps submitted *)
  chunks : int;           (** chunks across all sweeps *)
  wall : float;           (** seconds of caller wall time inside sweeps *)
  domains : domain_stats array;
      (** index 0 is the caller; 1.. are the spawned workers *)
}

val stats : t -> stats
val reset_stats : t -> unit

val last_sweep : t -> stats option
(** The per-call delta of the most recent sweep — [calls = 1], [chunks]
    the sweep's own chunk count, [wall] its caller wall time, [domains]
    the per-domain progress since the sweep started (the per-call reset
    marker that makes a reused pool's counters merge-correct). Chunk
    deltas are exact at any [jobs]; busy/wait deltas are non-negative
    lower bounds that sum to the cumulative totals over the pool's
    lifetime (a worker publishes its busy tail after the completion
    signal, so a slow tail can slip into the next sweep's delta), and
    are exact at [jobs = 1]. [None] before the first sweep and after
    {!reset_stats}. *)

val pp_stats : Format.formatter -> stats -> unit
(** Multi-line human-readable rendering, printed by the bench ablations
    and the [--jobs] CLI subcommands. *)
