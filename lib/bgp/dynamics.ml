type config = {
  duration : float;
  base_churn_rate : float;
  churn_alpha : float;
  churn_xmin : float;
  hosting_churn_factor : float;
  max_rate_multiplier : float;
  mean_outage : float;
  global_link_events : int;
  mean_global_outage : float;
  resets_per_session : float;
  reset_transfer_time : float;
  convergence_transients : bool;
  transient_prob : float;
  mrai : float;
  convergence_delay_max : float;
  max_affected_per_event : int;
  pathological_prefixes : int;
  pathological_multiplier : float;
  delta_states : int;
  session_churn : Churn.config option;
}

let day = 86_400.

let default_config =
  { duration = 30. *. day;
    base_churn_rate = 1.5;
    churn_alpha = 1.5;
    churn_xmin = 0.5;
    hosting_churn_factor = 1.5;
    max_rate_multiplier = 400.;
    mean_outage = 2800.;
    global_link_events = 12;
    mean_global_outage = 1800.;
    resets_per_session = 2.5;
    reset_transfer_time = 45.;
    convergence_transients = true;
    transient_prob = 0.35;
    mrai = 28.;
    convergence_delay_max = 40.;
    max_affected_per_event = 40;
    pathological_prefixes = 2;
    pathological_multiplier = 2600.;
    delta_states = 512;
    session_churn = None }

let short_config =
  { default_config with
    duration = 2. *. day;
    base_churn_rate = 0.4;
    global_link_events = 2;
    resets_per_session = 0.5;
    pathological_prefixes = 1;
    pathological_multiplier = 150. }

type world = {
  graph : As_graph.t;
  indexed : As_graph.Indexed.t;
  addressing : Addressing.t;
  collectors : Collector.t list;
}

let make_world graph addressing collectors =
  { graph; indexed = As_graph.Indexed.of_graph graph; addressing; collectors }

type initial = Route.t Prefix.Map.t Update.Session_map.t

(* Registry mirrors of [stats], bulk-added once per [run] so a process
   that drives several dynamics runs accumulates across them.  The
   regression suite pins these against the returned record. *)
let m_churn = Metrics.counter ~help:"churn events applied" "dynamics.churn_events"
let m_updates = Metrics.counter ~help:"updates emitted" "dynamics.updates_emitted"
let m_ann = Metrics.counter ~help:"announcements emitted" "dynamics.announces"
let m_wd = Metrics.counter ~help:"withdrawals emitted" "dynamics.withdraws"
let m_full_recomp =
  Metrics.counter ~help:"full route recomputations" "dynamics.full_recomputations"
let m_delta_steps =
  Metrics.counter ~help:"incremental delta repairs" "dynamics.delta_steps"
let m_delta_stop =
  Metrics.counter ~help:"delta link repairs proven no-ops"
    "dynamics.delta_stop_early"
let m_delta_frontier =
  Metrics.histogram ~help:"ASes touched per delta step"
    ~buckets:[| 0.; 1.; 2.; 4.; 8.; 16.; 32.; 64.; 128.; 256.; 512.; 1024.;
                2048.; 4096. |]
    "dynamics.delta_frontier"
let m_dropped = Metrics.counter ~help:"updates dropped past horizon" "dynamics.post_horizon_dropped"

type stats = {
  churn_events : int;
  global_events : (Asn.t * Asn.t * float * float) list;
  resets_injected : (Update.session_id * float * float) list;
  updates_emitted : int;
  announces : int;
  withdraws : int;
  full_recomputations : int;
  delta_steps : int;
  delta_stop_early : int;
  cache_hits : int;
  cache_misses : int;
  post_horizon_dropped : int;
  final_failed : Link_set.t;
}

type perturbation =
  | Restore_link of Asn.t * Asn.t
  | Set_prepend of int * int  (* prefix index, value to restore *)

type event =
  | Churn of int                               (* prefix index *)
  | Revert of perturbation * int list          (* affected prefix indices *)
  | Global_fail
  | Global_restore of (Asn.t * Asn.t) * int list
  | Reset of int                               (* session index *)
  | Trace_down of int                          (* trace-churn entity index *)
  | Trace_up of int

type state = {
  cfg : config;
  w : world;
  rng : Rng.t;
  sessions : Collector.session array;
  pfxs : Prefix.t array;
  origins : Asn.t array;
  prepend : int array;
  current : Route.t option array array;  (* .(pfx).(session) *)
  previous : Route.t option array array; (* route before the last change *)
  pfx_of_origin : int list Asn.Table.t;
  core_links : (Asn.t * Asn.t) array;
  mutable failed : Link_set.t;
  workspace : Propagate.Workspace.t;
  delta_scratch : Propagate.Delta.scratch;
  peer_ids : int array;    (* session index -> peer's graph id *)
  vis_threshold : int array;
      (* session index -> minimum Propagate class code its feed shows *)
  origin_key : int array;  (* prefix index -> origin's graph id *)
  ann_cache : Announcement.t list array;
      (* prefix index -> its current singleton announcement list;
         rebuilt lazily when the prepend moves *)
  seen_version : int array;
      (* prefix index -> {!Propagate.Delta.version} of the state
         [current.(p)] was last derived from; -1 = unknown. When a
         recompute lands on the same version, no session view can have
         changed and the whole per-session scan is skipped. *)
  delta : (int, Propagate.Delta.state * int ref) Hashtbl.t;
      (* origin graph id -> (state, last-use tick) — a bounded LRU.
         Keyed per {e origin}, not per prefix: the routing arrays never
         depend on the prefix, so all prefixes of one origin share a
         single retained fixed point ({!Propagate.Delta.update} swaps
         the announcement metadata in O(1)). *)
  mutable delta_tick : int;
  trace_entities : Asn.t array;
      (* trace-churn entity index -> origin AS; distinct origins sorted by
         [Asn.compare], empty unless [cfg.session_churn] is set *)
  trace_links : (Asn.t * Asn.t) list array;
      (* entity -> links its last Trace_down actually failed (links some
         other process had already failed are excluded: their own restore
         owns them) *)
  trace_affected : int list array;
      (* entity -> prefixes recomputed at its last Trace_down; its
         Trace_up recomputes the same set *)
  events : event Pqueue.t;
  outq : Update.t Pqueue.t;
  emit : Update.t -> unit;
  mutable n_churn : int;
  mutable n_updates : int;
  mutable n_ann : int;
  mutable n_wd : int;
  mutable n_full_recomp : int;
  mutable n_delta_steps : int;
  mutable n_delta_stop : int;
  mutable n_dropped : int;
  mutable globals : (Asn.t * Asn.t * float * float) list;
  mutable resets : (Update.session_id * float * float) list;
}

(* ---- emission ----------------------------------------------------- *)

let drain st limit =
  List.iter
    (fun (_, u) ->
       st.emit u;
       st.n_updates <- st.n_updates + 1;
       if Update.is_announce u then st.n_ann <- st.n_ann + 1
       else st.n_wd <- st.n_wd + 1)
    (Pqueue.pop_until st.outq limit)

let schedule_update st time session kind =
  Pqueue.push st.outq time { Update.time; session; kind }

(* ---- route computation -------------------------------------------- *)

(* The singleton announcement list for [p]'s current configuration,
   rebuilt only when [p]'s prepend moved since the last query: every
   event queries it once per affected prefix, and the steady state is
   an unchanged prepend. *)
let announcement st p =
  match st.ann_cache.(p) with
  | [ a ] when a.Announcement.prepend = st.prepend.(p) -> st.ann_cache.(p)
  | _ ->
      let anns =
        [ Announcement.originate st.origins.(p) st.pfxs.(p)
          |> Announcement.with_prepend st.prepend.(p) ]
      in
      st.ann_cache.(p) <- anns;
      anns

(* Compute the outcome for prefix [p] in the current (prepend, failed)
   configuration, preferring the incremental engine: each {e origin}
   keeps a {!Propagate.Delta.state} (bounded LRU of [cfg.delta_states])
   whose update diffs the configuration against the last one it applied
   and repairs only the dirty region — O(affected) instead of O(world),
   and O(1) when the flapped link carries no selected route. Because
   routing is prefix-agnostic, one state serves every prefix of an
   origin: an event that touches dozens of co-originated prefixes pays
   for one repair, and each further prefix is an O(1) metadata swap.
   Full computes remain the cold-start / eviction / unsupported-shape
   fallback and run through the reusable workspace. [n_full_recomp]
   counts full propagation runs (wherever they happen), [n_delta_steps]
   incremental repairs. *)
let delta_state_for st p =
  st.delta_tick <- st.delta_tick + 1;
  match Hashtbl.find_opt st.delta st.origin_key.(p) with
  | Some (ds, last) ->
      last := st.delta_tick;
      ds
  | None ->
      if Hashtbl.length st.delta >= st.cfg.delta_states then begin
        (* Evict the least-recently-used state. *)
        let victim =
          Hashtbl.fold
            (fun q (_, last) acc ->
               match acc with
               | Some (_, best) when best <= !last -> acc
               | _ -> Some (q, !last))
            st.delta None
        in
        match victim with
        | Some (q, _) -> Hashtbl.remove st.delta q
        | None -> ()
      end;
      let ds = Propagate.Delta.create st.w.indexed in
      Hashtbl.add st.delta st.origin_key.(p) (ds, ref st.delta_tick);
      ds

(* The routing outcome for prefix [p]: delta repair when the engine is
   on, otherwise the full workspace compute. Either way the outcome is
   scratch-backed and valid only until the next compute. *)
let outcome_for st p =
  let anns = announcement st p in
  if st.cfg.delta_states > 0 && Propagate.Delta.supported anns then begin
    let ds = delta_state_for st p in
    let outcome, kind =
      Propagate.Delta.update ds st.delta_scratch ~failed:st.failed anns
    in
    (match kind with
     | Propagate.Delta.Full_rebuild ->
         st.n_full_recomp <- st.n_full_recomp + 1
     | Propagate.Delta.Steps { frontier; stop_early; _ } ->
         st.n_delta_steps <- st.n_delta_steps + 1;
         st.n_delta_stop <- st.n_delta_stop + stop_early;
         Metrics.observe m_delta_frontier (float_of_int frontier));
    (outcome, Propagate.Delta.version ds)
  end
  else begin
    st.n_full_recomp <- st.n_full_recomp + 1;
    ( Propagate.compute st.w.indexed ~workspace:st.workspace ~failed:st.failed
        anns,
      -1 )
  end

let visible_route outcome (session : Collector.session) =
  let peer = session.Collector.id.Update.peer in
  match Propagate.route_class_at outcome peer with
  | Some cls when Collector.visible session ~route_class:cls ->
      Propagate.route_at outcome peer
  | Some _ | None -> None

(* Recompute routes for the given prefixes and emit the resulting session
   transitions (with optional convergence transients). *)
let recompute st now affected =
  List.iter
    (fun p ->
       let outcome, ver = outcome_for st p in
       (* If the delta state's version is the one [current.(p)] was
          derived from, the repair changed nothing any session can see:
          skip the per-session scan outright (no route is compared, no
          RNG is drawn — exactly what an all-unchanged scan would do). *)
       if ver < 0 || st.seen_version.(p) <> ver then begin
       let any_changed = ref false in
       Array.iteri
         (fun s_idx (session : Collector.session) ->
            let peer_id = st.peer_ids.(s_idx) in
            let vis =
              Propagate.class_code_at_id outcome peer_id
              >= st.vis_threshold.(s_idx)
            in
            let old = st.current.(p).(s_idx) in
            (* Decide "changed" without materializing the new route: the
               steady state is an unchanged session, and building a Route
               per (prefix, session) per event dominates the loop. *)
            let changed =
              match old with
              | None -> vis
              | Some r ->
                  not (vis && Propagate.route_matches_id outcome peer_id r)
            in
            if changed then begin
              any_changed := true;
              let next =
                if vis then Propagate.route_at_id outcome peer_id else None
              in
              let delay = 2. +. Rng.float st.rng st.cfg.convergence_delay_max in
              let id = session.Collector.id in
              (match next with
               | None -> schedule_update st (now +. delay) id (Update.Withdraw st.pfxs.(p))
               | Some route ->
                   let base = now +. delay in
                   let n_transients =
                     if st.cfg.convergence_transients
                        && Rng.float st.rng 1.0 < st.cfg.transient_prob
                     then begin
                       (* Path exploration: the peer walks through alternate
                          candidates before settling on [route]. *)
                       let peer = id.Update.peer in
                       let cands = Propagate.candidates_at outcome peer in
                       let transients =
                         cands
                         |> List.filter (fun (c : Route.t) ->
                             not (List.equal Asn.equal (peer :: c.Route.as_path)
                                    route.Route.as_path))
                         |> (fun l -> List.filteri (fun i _ -> i < 2) l)
                       in
                       List.iteri
                         (fun i (c : Route.t) ->
                            let path = peer :: c.Route.as_path in
                            schedule_update st
                              (base +. (float_of_int i *. st.cfg.mrai))
                              id
                              (Update.Announce (Route.make st.pfxs.(p) path)))
                         transients;
                       List.length transients
                     end
                     else 0
                   in
                   schedule_update st
                     (base +. (float_of_int n_transients *. st.cfg.mrai))
                     id (Update.Announce route));
              st.previous.(p).(s_idx) <- old;
              st.current.(p).(s_idx) <- next
            end)
         st.sessions;
       if ver >= 0 then st.seen_version.(p) <- ver
       else if !any_changed then
         (* A versionless outcome (full compute) moved
            [current.(p)] away from whatever version last derived it. *)
         st.seen_version.(p) <- -1
       end)
    affected

(* ---- event handlers ------------------------------------------------ *)

let prefixes_of_origin st o =
  Option.value ~default:[] (Asn.Table.find_opt st.pfx_of_origin o)

let cap st l =
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: tl -> x :: take (n - 1) tl
  in
  take st.cfg.max_affected_per_event l

let dedup l = List.sort_uniq Int.compare l

let fail_link st now a b affected =
  if Link_set.mem a b st.failed then ()
  else begin
    st.failed <- Link_set.add a b st.failed;
    let d = Rng.exponential st.rng (1. /. st.cfg.mean_outage) in
    Pqueue.push st.events (now +. d) (Revert (Restore_link (a, b), affected));
    recompute st now affected
  end

let handle_churn st now p =
  st.n_churn <- st.n_churn + 1;
  let o = st.origins.(p) in
  let g = st.w.graph in
  let roll = Rng.float st.rng 1.0 in
  if roll < 0.5 then begin
    (* Re-homing flap: one of the origin's uplinks goes down. *)
    let uplinks = As_graph.providers g o @ As_graph.peers g o in
    match uplinks with
    | [] -> ()
    | _ ->
        let up = Rng.pick_list st.rng uplinks in
        let affected =
          dedup
            (prefixes_of_origin st o
             @ List.concat_map (prefixes_of_origin st) (cap st (As_graph.customers g o)))
        in
        fail_link st now o up (cap st affected)
  end
  else if roll < 0.8 then begin
    (* Upstream flap: a link one AS up from the origin flaps. *)
    match As_graph.providers g o with
    | [] -> ()
    | provs ->
        let pr = Rng.pick_list st.rng provs in
        let candidates = As_graph.providers g pr @ As_graph.peers g pr in
        (match candidates with
         | [] -> ()
         | _ ->
             let x = Rng.pick_list st.rng candidates in
             let affected =
               dedup
                 (prefixes_of_origin st o
                  @ prefixes_of_origin st pr
                  @ List.concat_map (prefixes_of_origin st)
                      (cap st (As_graph.customers g pr)))
             in
             fail_link st now pr x (cap st affected))
  end
  else begin
    (* Traffic-engineering prepend toggle. *)
    let old = st.prepend.(p) in
    st.prepend.(p) <- (if old = 0 then 2 else 0);
    let d = Rng.exponential st.rng (1. /. st.cfg.mean_outage) in
    Pqueue.push st.events (now +. d) (Revert (Set_prepend (p, old), [ p ]));
    recompute st now [ p ]
  end

let apply_perturbation st = function
  | Restore_link (a, b) -> st.failed <- Link_set.remove a b st.failed
  | Set_prepend (p, v) -> st.prepend.(p) <- v

let handle_revert st now perturbation affected =
  apply_perturbation st perturbation;
  recompute st now affected

(* Prefixes whose currently-recorded path at some session crosses link
   (a, b): the only ones a core-link failure can deflect. *)
let prefixes_using_link st a b =
  let uses route =
    let rec consecutive = function
      | x :: (y :: _ as rest) ->
          (Asn.equal x a && Asn.equal y b)
          || (Asn.equal x b && Asn.equal y a)
          || consecutive rest
      | [ _ ] | [] -> false
    in
    consecutive route.Route.as_path
  in
  let out = ref [] in
  Array.iteri
    (fun p per_session ->
       if Array.exists (function Some r -> uses r | None -> false) per_session
       then out := p :: !out)
    st.current;
  !out

let handle_global_fail st now =
  if Array.length st.core_links = 0 then ()
  else begin
    let a, b = Rng.pick st.rng st.core_links in
    if not (Link_set.mem a b st.failed) then begin
      let affected = prefixes_using_link st a b in
      st.failed <- Link_set.add a b st.failed;
      let d = Rng.exponential st.rng (1. /. st.cfg.mean_global_outage) in
      Pqueue.push st.events (now +. d) (Global_restore ((a, b), affected));
      st.globals <- (a, b, now, now +. d) :: st.globals;
      recompute st now affected
    end
  end

let handle_global_restore st now (a, b) affected =
  st.failed <- Link_set.remove a b st.failed;
  recompute st now affected

(* Trace-shaped session churn ([cfg.session_churn]): entity [e]'s origin
   AS drops off the network — every uplink it has goes down at once — and
   comes back when the generator's matching Up event lands. Only links
   this handler itself failed are recorded and later restored, so
   Down/Up pairs compose with Churn/Global perturbations without
   double-failing or double-restoring a link. *)
let handle_trace_down st now e =
  st.n_churn <- st.n_churn + 1;
  let o = st.trace_entities.(e) in
  let g = st.w.graph in
  let uplinks =
    List.filter
      (fun up -> not (Link_set.mem o up st.failed))
      (As_graph.providers g o @ As_graph.peers g o)
  in
  if uplinks <> [] then begin
    List.iter (fun up -> st.failed <- Link_set.add o up st.failed) uplinks;
    let affected =
      cap st
        (dedup
           (prefixes_of_origin st o
            @ List.concat_map (prefixes_of_origin st)
                (cap st (As_graph.customers g o))))
    in
    st.trace_links.(e) <- List.map (fun up -> (o, up)) uplinks;
    st.trace_affected.(e) <- affected;
    recompute st now affected
  end

let trace_restore st e =
  List.iter
    (fun (a, b) -> st.failed <- Link_set.remove a b st.failed)
    st.trace_links.(e);
  st.trace_links.(e) <- []

let handle_trace_up st now e =
  if st.trace_links.(e) <> [] then begin
    let affected = st.trace_affected.(e) in
    trace_restore st e;
    st.trace_affected.(e) <- [];
    recompute st now affected
  end

let handle_reset st now s_idx =
  let session = st.sessions.(s_idx) in
  let id = session.Collector.id in
  let finish = now +. st.cfg.reset_transfer_time in
  st.resets <- (id, now, finish) :: st.resets;
  Array.iteri
    (fun p per_session ->
       match per_session.(s_idx) with
       | None -> ()
       | Some route ->
           let at = now +. Rng.float st.rng st.cfg.reset_transfer_time in
           (* A slice of the table is replayed through a stale path first:
              the peer itself is still converging during the transfer. *)
           (match st.previous.(p).(s_idx) with
            | Some stale when Rng.float st.rng 1.0 < 0.25
                              && not (Route.equal stale route) ->
                schedule_update st at id (Update.Announce stale);
                schedule_update st (at +. 1.0) id (Update.Announce route)
            | Some _ | None -> schedule_update st at id (Update.Announce route)))
    st.current

(* ---- setup and main loop ------------------------------------------- *)

let poisson_times rng rate duration =
  if rate <= 0. then []
  else begin
    let rec loop t acc =
      let t = t +. Rng.exponential rng (rate /. duration) in
      if t >= duration then List.rev acc else loop t (t :: acc)
    in
    loop 0. []
  end

let run ~rng ?trace_rng ?(on_initial = fun _ -> ()) cfg w ~emit =
  Span.with_ ~name:"dynamics.run" @@ fun () ->
  let sessions = Array.of_list (Collector.all_sessions w.collectors) in
  let announced = Array.of_list (Addressing.announced w.addressing) in
  let pfxs = Array.map fst announced in
  let origins = Array.map snd announced in
  let n_pfx = Array.length pfxs in
  let pfx_of_origin = Asn.Table.create 1024 in
  Array.iteri
    (fun i o ->
       let cur = Option.value ~default:[] (Asn.Table.find_opt pfx_of_origin o) in
       Asn.Table.replace pfx_of_origin o (i :: cur))
    origins;
  let rate_multiplier =
    Array.map
      (fun o ->
         let hosting = (As_graph.info w.graph o).As_graph.hosting_weight in
         let m =
           Rng.pareto rng ~alpha:cfg.churn_alpha ~xmin:cfg.churn_xmin
           *. (1. +. (cfg.hosting_churn_factor *. hosting))
         in
         Float.min m cfg.max_rate_multiplier)
      origins
  in
  (* A couple of pathological super-flappers among hosting-AS prefixes —
     the paper's 178.239.176.0/20 anecdote (2000x the median churn). *)
  if cfg.pathological_prefixes > 0 && n_pfx > 0 then begin
    let hosting_idx =
      Array.to_list (Array.mapi (fun i o -> (i, o)) origins)
      |> List.filter (fun (_, o) ->
          (As_graph.info w.graph o).As_graph.hosting_weight > 0.)
      |> List.map fst
      |> Array.of_list
    in
    let pool = if Array.length hosting_idx > 0 then hosting_idx
               else Array.init n_pfx (fun i -> i) in
    for _ = 1 to cfg.pathological_prefixes do
      let i = Rng.pick rng pool in
      rate_multiplier.(i) <-
        cfg.pathological_multiplier *. (0.75 +. Rng.float rng 0.5)
    done
  end;
  let core_links =
    As_graph.links w.graph
    |> List.filter (fun (a, b, _) ->
        let tier x = (As_graph.info w.graph x).As_graph.tier in
        (match tier a with As_graph.Tier1 | As_graph.Transit -> true | As_graph.Stub -> false)
        && (match tier b with As_graph.Tier1 | As_graph.Transit -> true | As_graph.Stub -> false))
    |> List.map (fun (a, b, _) -> (a, b))
    |> Array.of_list
  in
  let trace_entities =
    match cfg.session_churn with
    | None -> [||]
    | Some _ ->
        Array.to_list origins |> List.sort_uniq Asn.compare |> Array.of_list
  in
  let st =
    { cfg; w; rng; sessions; pfxs; origins;
      prepend = Array.make n_pfx 0;
      current = Array.make_matrix n_pfx (Array.length sessions) None;
      previous = Array.make_matrix n_pfx (Array.length sessions) None;
      pfx_of_origin; core_links;
      failed = Link_set.empty;
      workspace = Propagate.Workspace.create ();
      delta_scratch = Propagate.Delta.create_scratch ();
      peer_ids =
        Array.map
          (fun (s : Collector.session) ->
             As_graph.Indexed.id_of_asn w.indexed s.Collector.id.Update.peer)
          sessions;
      vis_threshold =
        Array.map
          (fun (s : Collector.session) ->
             match s.Collector.feed with
             | Collector.Full -> 0
             | Collector.Customer_and_peer -> 1
             | Collector.Customer_only -> 2)
          sessions;
      origin_key =
        Array.map (As_graph.Indexed.id_of_asn w.indexed) origins;
      ann_cache = Array.make n_pfx [];
      seen_version = Array.make n_pfx (-1);
      delta = Hashtbl.create (max 16 (min cfg.delta_states 1024));
      delta_tick = 0;
      trace_entities;
      trace_links = Array.make (Array.length trace_entities) [];
      trace_affected = Array.make (Array.length trace_entities) [];
      events = Pqueue.create ();
      outq = Pqueue.create ();
      emit;
      n_churn = 0; n_updates = 0; n_ann = 0; n_wd = 0;
      n_full_recomp = 0; n_delta_steps = 0; n_delta_stop = 0;
      n_dropped = 0;
      globals = []; resets = [] }
  in
  (* Time 0: full routing computation, no emissions. *)
  let initial = ref Update.Session_map.empty in
  for p = 0 to n_pfx - 1 do
    let outcome, ver = outcome_for st p in
    st.seen_version.(p) <- ver;
    Array.iteri
      (fun s_idx session ->
         match visible_route outcome session with
         | Some route ->
             st.current.(p).(s_idx) <- Some route;
             let id = session.Collector.id in
             let table =
               Option.value ~default:Prefix.Map.empty
                 (Update.Session_map.find_opt id !initial)
             in
             initial :=
               Update.Session_map.add id
                 (Prefix.Map.add pfxs.(p) route table)
                 !initial
         | None -> ())
      sessions
  done;
  on_initial !initial;
  (* Pre-generate the independent event processes. *)
  for p = 0 to n_pfx - 1 do
    let rate = cfg.base_churn_rate *. rate_multiplier.(p) in
    List.iter
      (fun t -> Pqueue.push st.events t (Churn p))
      (poisson_times rng rate cfg.duration)
  done;
  for _ = 1 to cfg.global_link_events do
    Pqueue.push st.events (Rng.float rng cfg.duration) Global_fail
  done;
  Array.iteri
    (fun s_idx _ ->
       List.iter
         (fun t -> Pqueue.push st.events t (Reset s_idx))
         (poisson_times rng cfg.resets_per_session cfg.duration))
    sessions;
  (* Trace-shaped session churn rides its own stream ([trace_rng],
     normally [Scenario.rng_for _ "trace-churn"]; a split of [rng]
     otherwise), so switching a scenario's trace model never re-times the
     Poisson processes above. *)
  (match cfg.session_churn with
   | None -> ()
   | Some chcfg when Array.length trace_entities > 0 ->
       let trng =
         match trace_rng with Some r -> r | None -> Rng.split rng
       in
       List.iter
         (fun (ev : Churn.event) ->
            let k =
              match ev.Churn.action with
              | Churn.Down -> Trace_down ev.Churn.entity
              | Churn.Up -> Trace_up ev.Churn.entity
            in
            Pqueue.push st.events ev.Churn.time k)
         (Churn.generate ~rng:trng chcfg
            ~entities:(Array.length trace_entities) ~duration:cfg.duration)
   | Some _ -> ());
  (* Main loop. *)
  let rec loop () =
    match Pqueue.pop st.events with
    | None -> ()
    | Some (now, ev) ->
        drain st (Float.min now cfg.duration);
        if now <= cfg.duration then begin
          (match ev with
           | Churn p -> handle_churn st now p
           | Revert (perturbation, affected) -> handle_revert st now perturbation affected
           | Global_fail -> handle_global_fail st now
           | Global_restore (link, affected) -> handle_global_restore st now link affected
           | Reset s_idx -> handle_reset st now s_idx
           | Trace_down e -> handle_trace_down st now e
           | Trace_up e -> handle_trace_up st now e);
          loop ()
        end
        else begin
          (* Past the horizon nothing is emitted or recomputed, but
             revert-type events still land so every transient perturbation
             returns the state to baseline: [failed] ends empty and
             [prepend] at its configured values. *)
          (match ev with
           | Revert (perturbation, _) -> apply_perturbation st perturbation
           | Global_restore ((a, b), _) ->
               st.failed <- Link_set.remove a b st.failed
           | Trace_up e -> trace_restore st e
           | Churn _ | Global_fail | Reset _ | Trace_down _ -> ());
          loop ()
        end
  in
  loop ();
  (* The out-queue may still hold updates scheduled past the horizon
     (convergence delays and reset replays near the end of the run push
     past it). Emit only up to [duration]; count the rest as dropped. *)
  drain st cfg.duration;
  st.n_dropped <- st.n_dropped + Pqueue.length st.outq;
  Metrics.add m_churn st.n_churn;
  Metrics.add m_updates st.n_updates;
  Metrics.add m_ann st.n_ann;
  Metrics.add m_wd st.n_wd;
  Metrics.add m_full_recomp st.n_full_recomp;
  Metrics.add m_delta_steps st.n_delta_steps;
  Metrics.add m_delta_stop st.n_delta_stop;
  Metrics.add m_dropped st.n_dropped;
  ( !initial,
    { churn_events = st.n_churn;
      global_events = List.rev st.globals;
      resets_injected = List.rev st.resets;
      updates_emitted = st.n_updates;
      announces = st.n_ann;
      withdraws = st.n_wd;
      full_recomputations = st.n_full_recomp;
      delta_steps = st.n_delta_steps;
      delta_stop_early = st.n_delta_stop;
      cache_hits = 0;
      cache_misses = 0;
      post_horizon_dropped = st.n_dropped;
      final_failed = st.failed } )
