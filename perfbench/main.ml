(* The QuickSand benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   The workloads drive the library's public entry points at jobs = 1
   (BENCHMARK.json names the ones the benchmark runs).
   [--trace 0] sets up, then repeats the timed phase for about [S] seconds,
   alternating with the host reference (reference.ml), and reports the
   end-to-end metrics (medians over the repetitions).
   [--trace 1] sets up, runs the timed phase once untraced, then once more
   staged layer by layer, and reports the per-layer metrics. Every layer
   is timed from outside, around the calls into it.

   Each repetition checks its outputs (digests, invariants, accounting);
   a run whose checks fail reports no metrics. The last line of stdout is
   one JSON object {"correct", "attempted", "failed", "metrics"}; progress
   and diagnostics go to stderr. README.md explains the workloads, the
   metrics and what each layer metric should move. *)

(* ---- clocks, memory and GC probes ----------------------------------- *)

let now_ns = Monotonic_clock.now

let secs_between t0 t1 = Int64.to_float (Int64.sub t1 t0) *. 1e-9

let proc_status_kb field =
  In_channel.with_open_text "/proc/self/status" In_channel.input_lines
  |> List.find_map (fun line ->
      if String.starts_with ~prefix:(field ^ ":") line then
        Scanf.sscanf line "%_s %d" Option.some
      else None)
  |> Option.value ~default:0

(* Writing 5 to clear_refs resets VmHWM to the current RSS, so a peak read
   later covers only what ran since. The runtime keeps freed heap mapped,
   so memory that set-up used and freed stays a floor under the peak. *)
let reset_peak_rss () =
  Out_channel.with_open_text "/proc/self/clear_refs" (fun oc ->
      output_string oc "5")

let peak_rss_mb () = float_of_int (proc_status_kb "VmHWM") *. 1024. /. 1e6

let words_mb w = float_of_int w *. float_of_int (Sys.word_size / 8) /. 1e6

(* Major-heap high-water mark per stage, sampled at the end of every major
   cycle (installed only for the traced run). *)
let heap_peak = ref 0

let note_heap () =
  let w = (Gc.quick_stat ()).Gc.heap_words in
  if w > !heap_peak then heap_peak := w

let restart_heap_peak () =
  heap_peak := 0;
  note_heap ()

type snap = { at : int64; bytes : float; minors : int; majors : int }

let snap () =
  let q = Gc.quick_stat () in
  { at = now_ns (); bytes = Gc.allocated_bytes ();
    minors = q.Gc.minor_collections; majors = q.Gc.major_collections }

type cost = { secs : float; alloc : float; minor_gcs : int; major_gcs : int }

let cost_since a =
  let b = snap () in
  { secs = secs_between a.at b.at; alloc = b.bytes -. a.bytes;
    minor_gcs = b.minors - a.minors; major_gcs = b.majors - a.majors }

(* [stage name f]: run [f] inside a trace span and return its cost. *)
let stage name f =
  let a = snap () in
  let r = Span.with_ ~name f in
  (r, cost_since a)

let registry_hist name =
  match Metrics.value name with
  | Some (Metrics.Hist_v h) -> (h.Metrics.count, h.Metrics.sum)
  | _ -> (0, 0.)

let median l =
  match List.sort Float.compare l with
  | [] -> 0.
  | s ->
      let n = List.length s in
      if n mod 2 = 1 then List.nth s (n / 2)
      else (List.nth s ((n / 2) - 1) +. List.nth s (n / 2)) /. 2.

let gb x = x /. 1e9
let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* ---- output checks --------------------------------------------------- *)

let hex s = Digest.to_hex (Digest.string s)

(* Every field goes into the digest: ASNs and counts as decimal, seconds
   as their IEEE bits, so floats are compared bit-exact. *)
let add_int buf n =
  Buffer.add_string buf (Int.to_string n);
  Buffer.add_char buf ','

let add_set buf = function
  | None -> Buffer.add_string buf "-|"
  | Some s ->
      Asn.Set.iter (fun a -> add_int buf (Asn.to_int a)) s;
      Buffer.add_char buf '|'

let add_pairs buf l =
  List.sort (fun (a, _) (b, _) -> Asn.compare a b) l
  |> List.iter (fun (a, d) ->
      add_int buf (Asn.to_int a);
      Buffer.add_int64_le buf (Int64.bits_of_float d));
  Buffer.add_char buf '|'

(* Canonical (collector, peer, prefix) order. *)
let cells_digest cells =
  let buf = Buffer.create (1 lsl 20) in
  List.iter
    (fun (c : Measurement.cell) ->
       let k = c.Measurement.key in
       Buffer.add_string buf k.Measurement.session.Update.collector;
       Buffer.add_char buf '|';
       add_int buf (Asn.to_int k.Measurement.session.Update.peer);
       Buffer.add_string buf (Prefix.to_string k.Measurement.prefix);
       Buffer.add_char buf '|';
       add_set buf c.Measurement.baseline;
       add_int buf c.Measurement.updates;
       add_int buf c.Measurement.path_changes;
       add_pairs buf c.Measurement.residency;
       add_pairs buf c.Measurement.contiguous;
       add_set buf c.Measurement.final_set;
       Buffer.add_char buf '\n')
    (Serve.sort_cells cells);
  hex (Buffer.contents buf)

(* ---- metrics --------------------------------------------------------- *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

(* The [dynamics.*] layer metrics of the [Dynamics.run] call that gave
   [d] and cost [c]; [frontier0] is the delta-frontier histogram before
   it, [top_heap] the major heap's high-water mark in words. *)
let dynamics_layers c ~frontier0 ~top_heap (d : Dynamics.stats) =
  let count f = float_of_int (f d) in
  let n1, s1 = registry_hist "dynamics.delta_frontier" in
  let n0, s0 = frontier0 in
  [ m "dynamics.self_s" "s" c.secs;
    m "dynamics.alloc_gb" "GB" (gb c.alloc);
    m "dynamics.minor_gcs" "count" (float_of_int c.minor_gcs);
    m "dynamics.major_gcs" "count" (float_of_int c.major_gcs);
    m "dynamics.updates" "count" (count (fun d -> d.Dynamics.updates_emitted));
    m "dynamics.full_computes" "count"
      (count (fun d -> d.Dynamics.full_recomputations));
    m "dynamics.delta_steps" "count" (count (fun d -> d.Dynamics.delta_steps));
    m "dynamics.delta_stop_early" "count"
      (count (fun d -> d.Dynamics.delta_stop_early));
    m "dynamics.delta_frontier_mean" "ASes"
      (if n1 = n0 then 0. else (s1 -. s0) /. float_of_int (n1 - n0));
    m "dynamics.cache_hit_ratio" "ratio"
      (ratio d.Dynamics.cache_hits
         (d.Dynamics.cache_hits + d.Dynamics.cache_misses));
    m "dynamics.top_heap_mb" "MB" (words_mb top_heap) ]

(* What one repetition of a timed phase produced, judged after the clock
   stopped. [exact] are work counters that must repeat exactly. *)
type outcome = {
  digest : string;
  problems : string list;
  ops : int;
  failed_ops : int;
  exact : (string * float) list;
  extra : metric list;  (* per-layer metrics only a whole repetition gives *)
}

(* The per-layer schema: every traced run reports all of these, zero for
   layers a workload does not exercise (README.md has the table). *)
let per_layer_units =
  [ "scenario.build_s", "s"; "scenario.alloc_mb", "MB";
    "dynamics.self_s", "s"; "dynamics.alloc_gb", "GB";
    "dynamics.minor_gcs", "count"; "dynamics.major_gcs", "count";
    "dynamics.updates", "count"; "dynamics.full_computes", "count";
    "dynamics.delta_steps", "count"; "dynamics.delta_stop_early", "count";
    "dynamics.delta_frontier_mean", "ASes";
    "dynamics.cache_hit_ratio", "ratio"; "dynamics.top_heap_mb", "MB";
    "session_reset.self_s", "s"; "session_reset.alloc_gb", "GB";
    "session_reset.pushed", "count"; "session_reset.dropped", "count";
    "session_reset.bursts", "count";
    "measurement.self_s", "s"; "measurement.alloc_gb", "GB";
    "measurement.updates", "count"; "measurement.cells", "count";
    "measurement.live_heap_mb", "MB";
    "analysis.self_s", "s";
    "mrt.decode_s", "s"; "mrt.records", "count"; "mrt.alloc_gb", "GB";
    "serve.offer_s", "s"; "serve.drain_s", "s"; "serve.alloc_gb", "GB";
    "serve.major_gcs", "count"; "serve.offer_p99_us", "us";
    "serve.offer_p9999_us", "us"; "serve.offer_samples", "count";
    "ingest.released", "count"; "ingest.dropped", "count";
    "window.live_keys", "count"; "window.evictions", "count";
    "serve.events", "count"; "serve.alerts", "count";
    "long_term.cold_s", "s"; "long_term.warm_s", "s";
    "long_term.alloc_gb", "GB"; "long_term.major_gcs", "count";
    "gc.top_heap_mb", "MB"; "trace.wall_s", "s"; "trace.overhead_s", "s";
    "host.ref_s", "s" ]

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_result ~correct ~attempted ~failed metrics =
  let metrics = if correct then metrics else [] in
  let body =
    List.map
      (fun x ->
         Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name
           (json_number x.value) x.unit_)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " body)

(* Run [f] in a forked child and return what it returns (marshalled, so
   no closures). Every repetition thus starts from the parent's post-set-up
   heap: no repetition inherits another's garbage, GC debt or grown heap.
   jobs = 1 spawns no domains, so forking is safe. *)
let in_child f =
  flush stdout;
  flush stderr;
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close rd;
      let oc = Unix.out_channel_of_descr wr in
      let r = match f () with r -> Ok r | exception e -> Error (Printexc.to_string e) in
      Marshal.to_channel oc r [];
      close_out oc;
      Unix._exit 0
  | pid ->
      Unix.close wr;
      let ic = Unix.in_channel_of_descr rd in
      let r = try Marshal.from_channel ic with End_of_file -> Error "child died" in
      close_in ic;
      (match Unix.waitpid [] pid with
       | _, Unix.WEXITED 0 -> ()
       | _ -> failwith "benchmark child exited abnormally");
      (match r with Ok r -> r | Error msg -> failwith msg)

(* The host reference (reference.ml) in a fresh process: its wall-clock
   time in seconds. *)
let host_reference () =
  let exe =
    Filename.concat (Filename.dirname Sys.executable_name) "reference.exe"
  in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process exe [| exe |] Unix.stdin wr Unix.stderr in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let out = In_channel.input_all ic in
  close_in ic;
  match Unix.waitpid [] pid, float_of_string_opt (String.trim out) with
  | (_, Unix.WEXITED 0), Some t when t > 0. -> t
  | _ -> failwith "host reference failed"

(* [secs] in reference units: over the mean of the reference's seconds
   just before and just after them. *)
let per_ref secs ~before ~after = secs /. ((before +. after) /. 2.)

(* [f] run [n] times, alternating with the host reference: each result
   comes with the seconds [f] reports in reference units. [f] is told how
   many runs remain, itself included. *)
let bracketed n f =
  let rec go k before acc =
    if k = 0 then List.rev acc
    else
      let x, secs = f k in
      let after = host_reference () in
      go (k - 1) after ((x, per_ref secs ~before ~after) :: acc)
  in
  go n (host_reference ()) []

(* The synthetic Internet of the Paper workloads is the canonical one of
   its scale (seed 1, the CLI default); [--seed] drives everything that
   runs over it — churn, resets, the feed, adversary draws, clients — since
   every [Scenario.rng_for] stream derives from the scenario's seed field.
   Whole Paper topologies differ so much between seeds (a third more cells,
   a fifth more memory) that a seeded topology would make the seed, not the
   code, the largest term in every spread. *)
let world_seed = 1

(* How many times set-up builds the world; [scenario.build_s] is the
   median. *)
let paper_setups = 5

(* Only the last build is kept. *)
let build_paper_world ~setups seed =
  let once () =
    Gc.compact ();
    let a = snap () in
    let s =
      { (Scenario.build ~seed:world_seed Scenario.Paper) with Scenario.seed }
    in
    (s, cost_since a)
  in
  let rec go k costs =
    let s, c = once () in
    if k = 1 then (s, c :: costs) else go (k - 1) (c :: costs)
  in
  let s, costs = go setups [] in
  let build_s = median (List.map (fun c -> c.secs) costs) in
  (s, build_s,
   [ m "scenario.build_s" "s" build_s;
     m "scenario.alloc_mb" "MB" ((List.hd costs).alloc /. 1e6) ])

(* Set-up of the batch and M2 workloads: the median build, in reference
   units (README.md, "Host reference"). *)
let paper_setup seed =
  let before = host_reference () in
  let s, build_s, layers = build_paper_world ~setups:paper_setups seed in
  let after = host_reference () in
  (s, per_ref build_s ~before ~after, layers)

(* ---- the batch pipeline: paper-churn --------------------------------- *)

let exec = Pool.create ~jobs:1 ()

type batch_out = {
  meas : Measurement.t;
  f3l : Path_changes.t;
  f3r : As_exposure.t;
}

let batch_digest b =
  Format.asprintf "%a@.%a@." Path_changes.print b.f3l As_exposure.print b.f3r
  ^ cells_digest b.meas.Measurement.cells
  |> hex

(* One operation per repetition; a measurement that breaks a conformance
   law is a failed one. *)
let batch_check b () =
  let problems =
    Conformance.check_measurement b.meas
    |> List.map (fun v -> Format.asprintf "%a" Conformance.pp_violation v)
  in
  let dyn f = float_of_int (f b.meas.Measurement.dyn_stats) in
  { digest = batch_digest b;
    problems;
    ops = 1;
    failed_ops = (if problems = [] then 0 else 1);
    exact =
      [ "updates", dyn (fun d -> d.Dynamics.updates_emitted);
        "full", dyn (fun d -> d.Dynamics.full_recomputations);
        "delta", dyn (fun d -> d.Dynamics.delta_steps);
        "cache_hits", dyn (fun d -> d.Dynamics.cache_hits);
        "cells", float_of_int (List.length b.meas.Measurement.cells) ];
    extra = [] }

let batch_run ~dynamics s () =
  let meas = Measurement.run ~dynamics s in
  let f3l = Path_changes.compute ~exec meas in
  let f3r = As_exposure.compute ~exec meas in
  { meas; f3l; f3r }

(* The per-key accumulators of one world, in a table seeded with the
   time-0 baselines, fed the filtered stream and sealed at [duration]. *)
let accumulate ~duration initial passed =
  let table = Measurement.Key_table.create 65536 in
  let get_acc key =
    match Measurement.Key_table.find_opt table key with
    | Some a -> a
    | None ->
        let a = Measurement.Acc.create () in
        Measurement.Key_table.replace table key a;
        a
  in
  Update.Session_map.iter
    (fun session table0 ->
       Prefix.Map.iter
         (fun prefix route ->
            Measurement.Acc.set_baseline
              (get_acc { Measurement.session; prefix })
              (Route.as_set route))
         table0)
    initial;
  List.iter
    (fun (u : Update.t) ->
       let key =
         { Measurement.session = u.Update.session; prefix = Update.prefix u }
       in
       ignore (Measurement.Acc.consume (get_acc key) u : Measurement.Acc.event))
    passed;
  let visibility = Prefix.Table.create 4096 in
  let cells =
    Measurement.Key_table.fold
      (fun key acc out ->
         let acc_has_state =
           Measurement.Acc.baseline acc <> None
           || Measurement.Acc.announces acc > 0
         in
         if acc_has_state then Measurement.Acc.seal acc duration;
         match Measurement.Acc.cell key acc with
         | None -> out
         | Some cell ->
             let p = key.Measurement.prefix in
             let cur =
               Option.value ~default:0 (Prefix.Table.find_opt visibility p)
             in
             Prefix.Table.replace visibility p (cur + 1);
             cell :: out)
      table []
  in
  (cells, visibility)

(* The same pipeline staged through public functions, one layer at a
   time, exactly as [Measurement.run] plumbs it: the dynamics stream into
   a buffer, the tick-driven reset filter into a second buffer, the
   per-key accumulators, then the analyses. It must reproduce
   [batch_run]'s digest. *)
let batch_staged ~dynamics s =
  let buffer () =
    let items = ref [] in
    ((fun u -> items := u :: !items), fun () -> List.rev !items)
  in
  let frontier0 = registry_hist "dynamics.delta_frontier" in
  restart_heap_peak ();
  let (initial, dyn_stats, raw), dyn =
    stage "bench.dynamics" (fun () ->
        let push, contents = buffer () in
        let initial, st =
          Dynamics.run ~rng:(Scenario.rng_for s "measurement")
            ~trace_rng:(Scenario.rng_for s "trace-churn")
            dynamics s.Scenario.world ~emit:push
        in
        (initial, st, contents ()))
  in
  note_heap ();
  let dyn_layers =
    dynamics_layers dyn ~frontier0 ~top_heap:!heap_peak dyn_stats
  in
  let (passed, filter_stats), reset =
    stage "bench.session_reset" (fun () ->
        let push, contents = buffer () in
        let f = Session_reset.create ~emit:push () in
        Update.Session_map.iter
          (fun session table0 ->
             Session_reset.preload_table f session (Prefix.Map.cardinal table0))
          initial;
        List.iter
          (fun (u : Update.t) ->
             Session_reset.advance f u.Update.time;
             Session_reset.push f u)
          raw;
        Session_reset.flush f;
        (contents (), Session_reset.stats f))
  in
  let duration = dynamics.Dynamics.duration in
  let (cells, visibility), meas_cost =
    stage "bench.measurement" (fun () -> accumulate ~duration initial passed)
  in
  let meas =
    { Measurement.scenario = s; duration; initial; cells; dyn_stats;
      filter_stats = Some filter_stats; visibility;
      n_sessions = List.length (Scenario.sessions s) }
  in
  let live_heap = (Gc.stat ()).Gc.live_words in
  let out, analysis =
    stage "bench.analysis" (fun () ->
        let f3l = Path_changes.compute ~exec meas in
        { meas; f3l; f3r = As_exposure.compute ~exec meas })
  in
  let reset_count f = float_of_int (f filter_stats) in
  let layers =
    dyn_layers
    @ [ m "session_reset.self_s" "s" reset.secs;
      m "session_reset.alloc_gb" "GB" (gb reset.alloc);
      m "session_reset.pushed" "count"
        (reset_count (fun st -> st.Session_reset.pushed));
      m "session_reset.dropped" "count"
        (reset_count (fun st -> st.Session_reset.dropped));
      m "session_reset.bursts" "count"
        (reset_count (fun st -> List.length st.Session_reset.bursts));
      m "measurement.self_s" "s" meas_cost.secs;
      m "measurement.alloc_gb" "GB" (gb meas_cost.alloc);
      m "measurement.updates" "count" (float_of_int (List.length passed));
      m "measurement.cells" "count" (float_of_int (List.length cells));
      m "measurement.live_heap_mb" "MB" (words_mb live_heap);
      m "analysis.self_s" "s" analysis.secs ]
  in
  let self_total = dyn.secs +. reset.secs +. meas_cost.secs +. analysis.secs in
  (out, layers, self_total)

(* ---- serve-live: the [quicksand serve --mrt] path -------------------- *)

let feed_collector = "rrc00"

type feed = {
  mrt : string;
  records : int;
  dump_records : int;  (* the table dumps that open the feed *)
  churn_span : float;  (* shift between copies of the churn part *)
  build_s : float;
  build_layers : metric list;
  prep_s : float;  (* generating, cutting and encoding the feed *)
  gen_layers : metric list;
}

(* A Paper-scale raw collector feed, encoded record by record: every
   session's time-0 table as it is sent when the session comes up, then
   the first [feed_records] updates of [Dynamics.run] on the [mrt-dump]
   stream (every session, no reset filter), shifted after the tables. The
   table dump fixes the working set to the canonical RIB and the cut fixes
   the feed's size, so neither depends on how many resets or flaps the seed
   happens to draw. *)
let feed_records = 80_000

let make_feed ~seed ~dynamics =
  let s, build_s, build_layers = build_paper_world ~setups:1 seed in
  let peer_ips =
    List.fold_left
      (fun acc (sess : Collector.session) ->
         Update.Session_map.add sess.Collector.id sess.Collector.peer_ip acc)
      Update.Session_map.empty (Scenario.sessions s)
  in
  let frontier0 = registry_hist "dynamics.delta_frontier" in
  let g = snap () in
  let updates = ref [] in
  let initial, d =
    Dynamics.run ~rng:(Scenario.rng_for s "mrt-dump") dynamics
      s.Scenario.world ~emit:(fun u -> updates := u :: !updates)
  in
  let gen_layers =
    (* the child's top heap so far: its scenario build and this run *)
    dynamics_layers (cost_since g) ~frontier0
      ~top_heap:(Gc.quick_stat ()).Gc.top_heap_words d
  in
  let generated = List.length !updates in
  if generated < feed_records then
    failwith (Printf.sprintf "feed: only %d updates generated" generated);
  (* Sessions come up [session_gap] seconds apart, each sending its whole
     table at once: at most a few sessions' tables sit in the ingest
     queue's 120 s reorder window, well under its 65536 bound. The churn
     starts once the last table is in. *)
  let session_gap = 10. in
  let table_dump =
    Update.Session_map.bindings initial
    |> List.mapi (fun i (session, table) ->
        let time = float_of_int i *. session_gap in
        Prefix.Map.fold
          (fun _ route acc ->
             { Update.time; session; kind = Update.Announce route } :: acc)
          table []
        |> List.rev)
    |> List.concat
  in
  let churn_start =
    float_of_int (Update.Session_map.cardinal initial) *. session_gap
  in
  let kept =
    List.rev !updates
    |> List.filteri (fun i _ -> i < feed_records)
    |> List.map (fun (u : Update.t) ->
        { u with Update.time = u.Update.time +. churn_start })
  in
  Printf.eprintf "feed: %d-route table dump, then %d of %d updates\n%!"
    (List.length table_dump) feed_records generated;
  let buf = Buffer.create (1 lsl 24) in
  let local_ip = Ipv4.of_string "192.0.2.254" in
  let records =
    List.fold_left
      (fun n (u : Update.t) ->
         let peer_ip =
           Option.value ~default:local_ip
             (Update.Session_map.find_opt u.Update.session peer_ips)
         in
         Mrt.encode_record buf
           (Mrt.record_of_update ~local_as:(Asn.of_int 12654) ~local_ip
              ~peer_ip u);
         n + 1)
      0 (table_dump @ kept)
  in
  let prep = cost_since g in
  { mrt = Buffer.contents buf; records;
    dump_records = List.length table_dump;
    (* churn copies follow each other one second apart *)
    churn_span =
      (List.nth kept (feed_records - 1)).Update.time -. churn_start +. 1.;
    build_s; build_layers;
    prep_s = prep.secs;
    gen_layers }

type serve_out = {
  service : Serve.t;
  violations : Conformance.violation list;
  events_digest : unit -> string;
  offered : int;
}

let digest_sink () =
  let buf = Buffer.create (1 lsl 16) in
  let sink =
    Sink.make ~name:"digest" (fun batch ->
        Array.iter (fun (_, json) -> Buffer.add_string buf (Digest.string json))
          batch)
  in
  (sink, fun () -> hex (Buffer.contents buf))

(* Offer exactly [offers] updates: the table dumps once, then the churn
   part of the feed back to back, each copy shifted past the previous one,
   so the work per repetition does not depend on how many records the
   seed's feed happens to hold. [lat] (if given) receives each offer's
   latency in ns. Returns the time of the last update offered. *)
let offer_feed ~offers ?lat feed service updates =
  let i = ref 0 and last = ref 0. in
  let offer (u : Update.t) =
    if !i < offers then begin
      (match lat with
       | None -> Serve.offer service u
       | Some lat ->
           let t0 = now_ns () in
           Serve.offer service u;
           Float.Array.set lat !i (Int64.to_float (Int64.sub (now_ns ()) t0)));
      last := u.Update.time;
      incr i
    end
  in
  let rec dumps j = function
    | u :: rest when j < feed.dump_records -> offer u; dumps (j + 1) rest
    | churn -> churn
  in
  let churn = dumps 0 updates in
  let k = ref 0 in
  while !i < offers do
    let shift = float_of_int !k *. feed.churn_span in
    List.iter
      (fun (u : Update.t) ->
         offer (if !k = 0 then u else { u with Update.time = u.Update.time +. shift }))
      churn;
    incr k
  done;
  !last

let new_service () =
  let sink, events_digest = digest_sink () in
  (Serve.create ~watched:(fun _ -> true) ~sinks:[ sink ] ~exec (), events_digest)

(* decode -> create -> offer -> drain: [quicksand serve --mrt] minus the
   file read. *)
let serve_run ~offers ?lat feed () =
  let updates = Ingest.decode_mrt ~collector:feed_collector ~exec feed.mrt in
  let service, events_digest = new_service () in
  let horizon = offer_feed ~offers ?lat feed service updates in
  let violations = Serve.drain service ~horizon in
  { service; violations; events_digest; offered = offers }

let serve_check o () =
  let st = Ingest.stats (Serve.ingest o.service) in
  let ws = Window.stats (Serve.window o.service) in
  let alerts = Serve.alerts o.service in
  let dropped = st.Ingest.dropped_late + st.Ingest.dropped_overflow in
  let problems =
    List.map
      (fun v -> "conformance: " ^ Format.asprintf "%a" Conformance.pp_violation v)
      o.violations
    @ (if st.Ingest.ingested
          = st.Ingest.released + st.Ingest.dropped_late
            + st.Ingest.dropped_overflow + st.Ingest.queued
       then []
       else [ "ingest accounting identity broken" ])
    @ (if st.Ingest.ingested = o.offered then []
       else [ "ingest saw a different number of offers" ])
    @ (if st.Ingest.queued = 0 then [] else [ "updates left queued after drain" ])
  in
  let alert_render =
    List.map
      (fun (a : Alert.t) ->
         Printf.sprintf "%h %s %s %s" a.Alert.time a.Alert.detector a.Alert.kind
           a.Alert.summary)
      alerts
    |> String.concat "\n"
  in
  { digest = hex (o.events_digest () ^ alert_render);
    problems;
    ops = o.offered;
    failed_ops = dropped;
    exact =
      [ "released", float_of_int st.Ingest.released;
        "events", float_of_int (Serve.events_emitted o.service);
        "alerts", float_of_int (List.length alerts);
        "evictions", float_of_int ws.Window.evictions ];
    extra = [] }

(* Nearest-rank quantile of ns samples, in µs. *)
let quantile_us sorted q =
  let n = Float.Array.length sorted in
  if n = 0 then 0.
  else
    let k = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
    Float.Array.get sorted (max 0 (min (n - 1) k)) /. 1e3

(* ---- m2-designs ------------------------------------------------------ *)

let m2_horizon = 120

(* A client's simulation stops at its first compromise, so at the CLI's
   f = 0.05 the work follows the adversary draw (±10% allocation between
   seeds). With f = 0.005 nearly every client lives the whole horizon:
   4 designs x 10 draws x 8 clients x 120 days, whatever the seed. *)
let m2_f = 0.005

let m2_run s () =
  Long_term.compare_designs ~rng:(Scenario.rng_for s "long-term")
    ~horizon_days:m2_horizon ~f:m2_f ~n_draws:10 ~exec s

let m2_check outcomes () =
  let problems =
    (if List.length outcomes = 4 then [] else [ "expected 4 designs" ])
    @ List.filter_map
        (fun (o : Long_term.outcome) ->
           if o.Long_term.compromised_fraction < 0.
              || o.Long_term.compromised_fraction > 1.
              || o.Long_term.clients <> 80
           then Some ("implausible outcome for " ^ o.Long_term.label)
           else None)
        outcomes
  in
  { digest = hex (Format.asprintf "%a" Long_term.print outcomes);
    problems;
    ops = 1;
    failed_ops = (if problems = [] then 0 else 1);
    exact =
      [ "compromised_days",
        float_of_int
          (List.fold_left
             (fun n (o : Long_term.outcome) ->
                n + List.length o.Long_term.days_to_compromise)
             0 outcomes) ];
    extra = [] }

(* ---- workloads ------------------------------------------------------- *)

(* A set-up workload: [run] is one repetition of the timed phase; the
   closure it returns judges the outputs after the clock has stopped.
   [traced] runs the staged decomposition and returns the per-layer
   metrics, the sum of the layer self-times and the judged outputs.
   [setup_s] is in host-reference units. *)
type prepared = {
  setup_s : float;
  setup_layers : metric list;
  setup_problems : string list;
  run : unit -> unit -> outcome;
  traced : unit -> metric list * float * outcome;
}

let batch_workload ~dynamics ~seed =
  let s, setup_s, setup_layers = paper_setup seed in
  { setup_s; setup_layers; setup_problems = [];
    run = (fun () -> batch_check (batch_run ~dynamics s ()));
    traced =
      (fun () ->
         let b, layers, self_total = batch_staged ~dynamics s in
         (layers, self_total, batch_check b ())) }

(* The table dumps plus ~2.3 copies of the churn part: a multi-second
   phase from a feed that set-up generates once. *)
let serve_offers = 300_000

(* The feed is set up this many times; set-up time is the median, and
   every set-up must give the same bytes. Only one is kept. *)
let feed_setups = 3

let serve_workload ~dynamics ~seed =
  (* Feeds are made in forked children, so the generator's heap never
     becomes the parent's RSS floor: the timed phase starts with only the
     encoded bytes. The other set-ups send back only their time and
     digest: feeds the parent unmarshalled and dropped would change the
     heap every repetition inherits. *)
  let setups =
    bracketed feed_setups (fun remaining ->
        if remaining = 1 then
          let f : feed = in_child (fun () -> make_feed ~seed ~dynamics) in
          ((Some f, Digest.string f.mrt), f.build_s +. f.prep_s)
        else
          let secs, digest =
            in_child (fun () ->
                let f = make_feed ~seed ~dynamics in
                (f.build_s +. f.prep_s, Digest.string f.mrt))
          in
          ((None, digest), secs))
  in
  let feed = Option.get (List.find_map (fun ((f, _), _) -> f) setups) in
  let digests = List.map (fun ((_, d), _) -> d) setups in
  let lat = Float.Array.make serve_offers 0. in
  { setup_s = median (List.map snd setups);
    setup_layers = feed.build_layers @ feed.gen_layers;
    setup_problems =
      (if List.for_all (String.equal (List.hd digests)) digests then []
       else [ "feed set-up is not deterministic" ]);
    run =
      (fun () ->
         let o = serve_run ~offers:serve_offers ~lat feed () in
         fun () ->
           let sorted = Float.Array.copy lat in
           Float.Array.sort Float.compare sorted;
           { (serve_check o ()) with
             extra =
               [ m "serve.offer_p99_us" "us" (quantile_us sorted 0.99);
                 m "serve.offer_p9999_us" "us" (quantile_us sorted 0.9999);
                 m "serve.offer_samples" "count" (float_of_int serve_offers) ] });
    traced =
      (fun () ->
         let updates, decode =
           stage "bench.mrt" (fun () ->
               Ingest.decode_mrt ~collector:feed_collector ~exec feed.mrt)
         in
         let (service, events_digest, horizon), offer =
           stage "bench.serve.offer" (fun () ->
               let service, events_digest = new_service () in
               let horizon =
                 offer_feed ~offers:serve_offers feed service updates
               in
               (service, events_digest, horizon))
         in
         let live_keys = (Window.stats (Serve.window service)).Window.live in
         let violations, drain =
           stage "bench.serve.drain" (fun () ->
               Serve.drain service ~horizon)
         in
         let o =
           serve_check
             { service; violations; events_digest; offered = serve_offers } ()
         in
         let st = Ingest.stats (Serve.ingest service) in
         let ws = Window.stats (Serve.window service) in
         let layers =
           [ m "mrt.decode_s" "s" decode.secs;
             m "mrt.records" "count" (float_of_int feed.records);
             m "mrt.alloc_gb" "GB" (gb decode.alloc);
             m "serve.offer_s" "s" offer.secs;
             m "serve.drain_s" "s" drain.secs;
             m "serve.alloc_gb" "GB" (gb (offer.alloc +. drain.alloc));
             m "serve.major_gcs" "count"
               (float_of_int (offer.major_gcs + drain.major_gcs));
             m "ingest.released" "count" (float_of_int st.Ingest.released);
             m "ingest.dropped" "count"
               (float_of_int (st.Ingest.dropped_late + st.Ingest.dropped_overflow));
             m "window.live_keys" "count" (float_of_int live_keys);
             m "window.evictions" "count" (float_of_int ws.Window.evictions);
             m "serve.events" "count"
               (float_of_int (Serve.events_emitted service));
             m "serve.alerts" "count"
               (float_of_int (List.length (Serve.alerts service))) ]
         in
         (layers, decode.secs +. offer.secs +. drain.secs, o)) }

let m2_workload ~seed =
  let s, setup_s, setup_layers = paper_setup seed in
  { setup_s; setup_layers; setup_problems = [];
    run = (fun () -> let o = m2_run s () in m2_check o);
    traced =
      (fun () ->
         let outcomes, whole = stage "bench.long_term" (m2_run s) in
         let o = m2_check outcomes () in
         let config =
           { Long_term.default_config with
             Long_term.horizon_days = m2_horizon; f = m2_f }
         in
         let one pool () =
           Long_term.run ~rng:(Scenario.rng_for s "long-term") ~config ~pool
             ~exec s
         in
         let pool =
           Long_term.make_pool ~rng:(Scenario.rng_for s "long-term-pool") s
             ~failure_variants:config.Long_term.failure_variants
         in
         let cold, cold_cost = stage "bench.long_term.cold" (one pool) in
         let warm, warm_cost = stage "bench.long_term.warm" (one pool) in
         let o =
           if Float.equal cold.Long_term.compromised_fraction
               warm.Long_term.compromised_fraction
           then o
           else { o with problems = "cold and warm runs disagree" :: o.problems }
         in
         ( [ m "long_term.cold_s" "s" cold_cost.secs;
             m "long_term.warm_s" "s" warm_cost.secs;
             m "long_term.alloc_gb" "GB" (gb whole.alloc);
             m "long_term.major_gcs" "count" (float_of_int whole.major_gcs) ],
           whole.secs,
           o )) }

(* Churn rates are per [duration]: shortening a config does not shrink its
   work, so the Paper workloads are sized by churn intensity instead
   (README.md). *)
let paper_churn =
  { Dynamics.short_config with Dynamics.base_churn_rate = 0.05 }

let workloads =
  [ "paper-churn", (fun seed -> batch_workload ~dynamics:paper_churn ~seed);
    "serve-live", (fun seed -> serve_workload ~dynamics:paper_churn ~seed);
    "m2-designs", (fun seed -> m2_workload ~seed) ]

(* ---- the two run modes ----------------------------------------------- *)

(* Work counters must repeat exactly between repetitions. Allocation is
   not compared here: [Gc.allocated_bytes] moves by a few kB with the GC's
   timing, which the parent's heap history shifts from fork to fork. From
   one process to another it repeats exactly (diff.py --exact). *)
let same_exact a b =
  List.length a.exact = List.length b.exact
  && List.for_all2 (fun (n, x) (n', y) -> n = n' && Float.equal x y) a.exact b.exact

let pp_exact o =
  String.concat " " (List.map (fun (n, v) -> Printf.sprintf "%s=%.17g" n v) o.exact)

(* One repetition in a forked child: compact, reset the RSS peak, time the
   phase, then judge the outputs with the clock stopped. *)
let repetition p =
  in_child (fun () ->
      (* what the parent allocated since its own compaction (earlier
         repetitions' results) must not shift this one's GC timing *)
      Gc.compact ();
      reset_peak_rss ();
      let a = snap () in
      let judge = p.run () in
      let c = cost_since a in
      let rss = peak_rss_mb () in
      (c, rss, judge ()))

(* Repetitions alternate with the host reference, so each has a reference
   time just before and just after it; its [wall_ref] is its wall time
   over the mean of the two. *)
let timed_mode p ~seconds =
  let t_start = now_ns () in
  let rec loop k before acc =
    let c, rss, o = repetition p in
    let after = host_reference () in
    let rel = per_ref c.secs ~before ~after in
    Printf.eprintf "rep %d: %.3f s, reference %.3f/%.3f s, %.4f x, %.0f B, %d minor, %d major, peak %.1f MB, digest %s\n%!"
      k c.secs before after rel c.alloc c.minor_gcs c.major_gcs rss o.digest;
    let acc = (rel, rss, o) :: acc in
    let elapsed = secs_between t_start (now_ns ()) in
    if elapsed +. c.secs +. after <= seconds then loop (k + 1) after acc
    else List.rev acc
  in
  let reps = loop 1 (host_reference ()) [] in
  let _, _, first = List.hd reps in
  let problems =
    p.setup_problems
    @ List.concat_map
      (fun (_, _, o) ->
         o.problems
         @ (if o.digest = first.digest then []
            else [ "digest differs between repetitions" ])
         @ (if same_exact o first then []
            else [ Printf.sprintf "work counters differ between repetitions: %s vs %s"
                     (pp_exact first) (pp_exact o) ]))
      reps
  in
  List.iter (fun p -> Printf.eprintf "check failed: %s\n%!" p) problems;
  let attempted = List.fold_left (fun n (_, _, o) -> n + o.ops) 0 reps in
  let failed = List.fold_left (fun n (_, _, o) -> n + o.failed_ops) 0 reps in
  (problems = [] && failed = 0, attempted, failed,
   [ m "wall_ref" "x" (median (List.map (fun (w, _, _) -> w) reps));
     m "setup_s" "s" p.setup_s;
     m "peak_rss_mb" "MB" (median (List.map (fun (_, r, _) -> r) reps)) ])

let traced_mode p =
  let before = host_reference () in
  let c, _, untraced = repetition p in
  let after = host_reference () in
  let layers, self_total, o =
    in_child (fun () ->
        ignore (Gc.create_alarm note_heap : Gc.alarm);
        Span.set_enabled true;
        let layers, self_total, o = p.traced () in
        let spans = Span.drain () in
        let o =
          if List.exists
               (fun (sp : Span.t) -> String.starts_with ~prefix:"bench." sp.Span.name)
               spans
          then o
          else { o with problems = "no trace spans recorded" :: o.problems }
        in
        let top_heap = words_mb (Gc.quick_stat ()).Gc.top_heap_words in
        (m "gc.top_heap_mb" "MB" top_heap :: layers, self_total, o))
  in
  let problems =
    p.setup_problems @ untraced.problems @ o.problems
    @ (if o.digest = untraced.digest then []
       else [ "staged decomposition does not reproduce the untraced digest" ])
  in
  List.iter (fun p -> Printf.eprintf "check failed: %s\n%!" p) problems;
  let known =
    p.setup_layers @ untraced.extra @ layers
    @ [ m "trace.wall_s" "s" c.secs;
        m "host.ref_s" "s" ((before +. after) /. 2.);
        m "trace.overhead_s" "s" (self_total -. c.secs) ]
  in
  let metrics =
    List.map
      (fun (name, unit_) ->
         match List.find_opt (fun x -> x.name = name) known with
         | Some x -> x
         | None -> m name unit_ 0.)
      per_layer_units
  in
  let failed = untraced.failed_ops + o.failed_ops in
  (problems = [] && failed = 0, untraced.ops + o.ops, failed, metrics)

(* ---- command line ---------------------------------------------------- *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  Arg.parse
    [ "--workload", Arg.Set_string workload,
      " " ^ String.concat "|" (List.map fst workloads);
      "--seed", Arg.Set_int seed, " input seed";
      "--seconds", Arg.Set_float seconds, " how long the timed phase repeats";
      "--trace", Arg.Set_int trace, " 0: end-to-end metrics, 1: per-layer" ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  match List.assoc_opt !workload workloads with
  | None ->
      prerr_endline ("unknown workload: " ^ !workload);
      exit 2
  | Some make ->
      let p = make !seed in
      Printf.eprintf "set-up: %.4f x the host reference\n%!" p.setup_s;
      (* The timed phase must not pay for set-up's garbage; the forked
         repetitions all inherit this compacted heap. *)
      Gc.compact ();
      let correct, attempted, failed, metrics =
        if !trace = 1 then traced_mode p else timed_mode p ~seconds:!seconds
      in
      print_result ~correct ~attempted ~failed metrics
