(** The process-wide metrics registry.

    Every subsystem registers its telemetry here — monotonic counters,
    gauges, and fixed-bucket histograms — under a stable dotted name
    ([Manifest.names] is the declared schema; the QS306 lint rule checks
    the live registry against it). Handles are registered once, at module
    initialization, and written on the hot path under two guarantees:

    {b Domain safety.} Counter increments and histogram observations land
    in a per-domain shard (one flat write, no locks — the registry keeps
    one shard per (metric, domain) pair, created lazily on a domain's
    first write, mirroring the one-workspace-per-domain contract of
    [Qs_exec]). Shards are merged at read time by {!snapshot}; merging
    sums counts bucket-wise, so it is commutative and conserves every
    observation, whatever the worker count was.

    {b Determinism.} Merged counter values depend only on what the
    program computed, never on scheduling. Timing-derived fields
    (histogram sums, minima, maxima, quantiles) are isolated in dedicated
    fields of {!hist_view} so exports can mask them; with a frozen
    {!Clock} they are exact zeros.

    Registration is idempotent: registering an already-registered name
    with the same kind returns the existing handle (and bumps the
    registration count that QS306 inspects); a kind mismatch raises
    [Invalid_argument]. Names under ["test."] are reserved for test
    suites and ignored by the manifest check. *)

type counter
type gauge
type histogram

(** {1 Registration} *)

val counter : ?help:string -> string -> counter
(** [counter name] registers (or retrieves) the monotonic counter
    [name]. *)

val gauge : ?help:string -> string -> gauge
(** [gauge name] registers a last-write-wins instantaneous value. *)

val histogram : ?buckets:float array -> ?help:string -> string -> histogram
(** [histogram ~buckets name] registers a fixed-bucket histogram. An
    observation [v] lands in the first bucket whose upper bound is [>= v],
    or in the implicit overflow bucket. [buckets] must be strictly
    increasing and non-empty (default: nine decades from 1e-6 to 100,
    suitable for seconds).
    @raise Invalid_argument on an unsorted or empty bucket array, or if
    [name] is already registered with different buckets. *)

(** {1 Hot-path writes} *)

val incr : counter -> unit
val add : counter -> int -> unit
(** @raise Invalid_argument if [n < 0] — counters are monotonic. *)

val set : gauge -> float -> unit

val observe : histogram -> float -> unit

val set_enabled : bool -> unit
(** [set_enabled false] turns every write into a no-op — the switch the
    bench overhead ablation flips. Reads are unaffected. Default: on. *)

val enabled : unit -> bool

(** {1 Reading} *)

type hist_view = {
  count : int;            (** observations (exact, scheduling-independent) *)
  sum : float;            (** timing-derived when the histogram is one *)
  min : float;            (** 0 when [count = 0] *)
  max : float;            (** 0 when [count = 0] *)
  buckets : (float * int) array;
      (** (upper bound, count) per bucket; the last bound is [infinity] *)
}

type value =
  | Counter_v of int
  | Gauge_v of float option   (** [None] until the first {!set} *)
  | Hist_v of hist_view

type sample = { name : string; help : string; value : value }

val snapshot : unit -> sample list
(** Every registered metric with its shards merged, sorted by name —
    the stable key order of the exports. *)

val value : string -> value option
(** One metric by name, merged. *)

val quantile : hist_view -> float -> float
(** [quantile h q] is the upper bound of the first bucket at which the
    cumulative count reaches [q * count] (the overflow bucket reads as
    the observed maximum), clamped to [\[h.min, h.max\]] so it never
    reports a value outside the observed range. Monotone in [q]; [0.] on
    an empty histogram.
    @raise Invalid_argument unless [0 <= q <= 1]. *)

val registrations : unit -> (string * int) list
(** [(name, times registered)] for every metric, sorted by name — the
    QS306 rule's input. A count above 1 means two subsystems claimed the
    same name. *)

val reset_all : unit -> unit
(** Zero every shard and unset every gauge (registrations survive). Test
    and golden-trace plumbing: callers must ensure no concurrent
    writers. *)
