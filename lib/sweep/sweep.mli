(** The declarative scenario registry behind [quicksand sweep].

    The paper's headline numbers are sweeps — exposure and compromise
    probability across topology, churn, adversary and guard-selection
    axes — and every point of such a sweep is a {e cell}: a fully-bound
    set of {!vars} naming one seeded scenario plus the process parameters
    of one measurement over it. A registry {!entry} declares a family of
    cells as data: a named overlay on a base entry plus a matrix of axis
    values, so "one more ablation" is a data change, never a code change
    (the run-workloads registry pattern).

    Everything here is static and deterministic: entries validate without
    building a single scenario ({!validate} is what the QS308 lint rule
    runs), matrices expand in a canonical row-major order, and a cell's
    identity is the scenario fingerprint over its canonical bindings —
    two cells that can diverge never share an identity, and two runs of
    one cell always do. *)

(** {1 Cell variables} *)

type churn =
  | Calm      (** quarter of the baseline churn rate, half the resets *)
  | Baseline  (** the size's stock dynamics configuration *)
  | Heavy     (** the churn-heavy day of the AB-delta ablation *)
  | Trace_pareto
      (** baseline plus trace-shaped session churn with Pareto up/down
          laws ({!Churn.pareto_day}) on the dedicated trace stream *)
  | Trace_lognormal
      (** as {!Trace_pareto} with log-normal laws
          ({!Churn.lognormal_day}) *)

(** Which consensus the M2 long-term stage of a cell runs against.
    [Frozen] skips the M2 stage entirely (the pre-existing behaviour);
    the other three run {!Long_term} — on the frozen snapshot or on a
    living {!Consensus_dynamics} epoch sequence. *)
type consensus =
  | Frozen      (** no M2 stage *)
  | Frozen_m2   (** M2 against the scenario's frozen snapshot *)
  | Live_hourly (** M2 under hourly epochs, default hazards *)
  | Live_heavy  (** M2 under hourly epochs, heavy arrival/departure *)

type guards =
  | No_guards  (** a fresh entry relay every day — pre-guard Tor *)
  | Guards of { n : int; rotation_days : int }
      (** [n] guards rotated every [rotation_days]; [max_int] = never *)

type vars = {
  size : Scenario.size;
  seed : int;
  days : float;       (** simulated measurement duration *)
  churn : churn;
  consensus : consensus;
  delta : int;        (** delta-state LRU capacity; 0 disables *)
  obs : bool;         (** Qs_obs instrumentation during the cell *)
  adversary : float;  (** fraction f of malicious ASes; 0 = no adversary *)
  guards : guards;
  threshold : float;  (** F3R contiguous-residency threshold, seconds *)
}

val default_vars : vars
(** Small scenario, seed 1, one simulated day, baseline churn, frozen
    consensus (no M2 stage), stock delta-state capacity (512),
    instrumentation on, no adversary, 3 guards / 30 days, the paper's
    300 s exposure threshold. *)

val known_keys : (string * string) list
(** Every overlay/axis key with a one-line description — the vocabulary
    {!set} accepts and QS308 checks against. *)

val set : vars -> key:string -> value:string -> (vars, string) result
(** [set v ~key ~value] parses and range-checks one binding; [Error msg]
    names the problem (unknown key, parse failure, out of range). *)

val churn_to_string : churn -> string
val consensus_to_string : consensus -> string
val guards_to_string : guards -> string

val canonical_bindings : vars -> (string * string) list
(** The full variable set rendered canonically (every key, sorted, values
    normalized) — the [params] section {!Scenario.fingerprint} digests
    into the cell identity, and the duplicate-cell test of {!validate}.
    Seed and size are deliberately absent: the fingerprint's identity
    section already carries them. *)

val identity : vars -> string
(** Canonical one-line rendering of the {e complete} cell identity
    (seed and size included) — equal strings iff the cells would
    fingerprint identically. *)

val dynamics : vars -> Dynamics.config
(** The dynamics configuration a cell runs: the size's stock config with
    the duration, churn preset and delta-state capacity applied. *)

(** {1 Registry entries} *)

type entry = {
  name : string;
  doc : string;
  base : string option;
      (** inherit another entry's resolved overlay (axes are {e not}
          inherited — a base contributes bindings only) *)
  overlay : (string * string) list;
      (** key/value bindings applied over the base, in order *)
  axes : (string * string list) list;
      (** the matrix: each axis is a key with the values it ranges over;
          cells are the cartesian product, expanded row-major with the
          last axis fastest *)
}

val builtin : entry list
(** The shipped registry: the ported AB-delta/AB-obs ablations,
    the paper's exposure matrix, the trace-churn day, the M2
    frozen-vs-living consensus pair, and the tiny CI matrix. *)

val find : entry list -> string -> entry option

(** {1 Validation and expansion} *)

type invalid = {
  entry : string;                  (** offending entry name *)
  problem : string;
      (** stable slug: ["duplicate-entry"], ["unknown-key"],
          ["bad-value"], ["empty-axis"], ["unreachable-base"],
          ["base-cycle"] or ["duplicate-cell"] *)
  detail : (string * string) list; (** structured context for reporters *)
  message : string;                (** human-readable description *)
}

val validate : ?registry:entry list -> entry -> invalid list
(** Static validation against [registry] (default {!builtin}, used to
    resolve [base] references): every overlay/axis key known and its
    value parseable and in range, axes non-empty, the base chain
    resolvable and acyclic, and the expanded matrix free of duplicate
    cell identities. Empty = the entry is runnable. *)

val validate_registry : entry list -> invalid list
(** {!validate} over every entry, plus duplicate-name detection — what
    the QS308 lint rule reports on. *)

type cell = {
  index : int;                       (** position in row-major order *)
  bindings : (string * string) list; (** this cell's axis bindings *)
  vars : vars;                       (** fully-resolved variables *)
}

val cells : ?registry:entry list -> entry -> (cell list, invalid list) result
(** Expand the entry's matrix into bound cells (base chain applied, then
    the overlay, then each axis combination). Fails with the {!validate}
    findings if the entry is invalid. *)

val slug : cell -> string
(** The cell's results-directory name: ["cell-007-seed=2,churn=heavy"] —
    index plus sanitized bindings, unique within an entry and stable
    across runs and worker counts. *)
