(* One registry cell per metric name; one shard per (cell, domain).
   Hot-path writes touch only the writing domain's shard — plain mutable
   fields, no locks — which is safe because a shard is only ever written
   by the domain that created it.  The registry mutex [mu] guards the
   name table and the shard lists, both of which change only on a
   domain's first write to a cell and at read time. *)

type kind = Counter | Gauge | Histogram

type shard = {
  mutable s_count : int;
  mutable s_sum : float;
  mutable s_min : float;
  mutable s_max : float;
  s_buckets : int array; (* length = Array.length bounds + 1 (overflow) *)
}

type cell = {
  id : int;
  name : string;
  help : string;
  kind : kind;
  bounds : float array; (* [||] unless kind = Histogram *)
  mutable shards : shard list;
  mutable g_value : float option;
  mutable regs : int;
}

type counter = cell
type gauge = cell
type histogram = cell

let mu = Mutex.create ()
let table : (string, cell) Hashtbl.t = Hashtbl.create 64
let next_id = ref 0
let on = Atomic.make true

let set_enabled b = Atomic.set on b
let enabled () = Atomic.get on

let default_buckets =
  [| 1e-6; 1e-5; 1e-4; 1e-3; 1e-2; 1e-1; 1.; 10.; 100. |]

let kind_name = function
  | Counter -> "counter"
  | Gauge -> "gauge"
  | Histogram -> "histogram"

let locked f =
  Mutex.lock mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

let register ~kind ~bounds ?(help = "") name =
  locked (fun () ->
      match Hashtbl.find_opt table name with
      | Some c ->
          if c.kind <> kind then
            invalid_arg
              (Printf.sprintf "Qs_obs.Metrics: %s already registered as a %s"
                 name (kind_name c.kind));
          if kind = Histogram && c.bounds <> bounds then
            invalid_arg
              (Printf.sprintf
                 "Qs_obs.Metrics: %s already registered with other buckets"
                 name);
          c.regs <- c.regs + 1;
          c
      | None ->
          let id = !next_id in
          incr next_id;
          let c =
            { id; name; help; kind; bounds; shards = []; g_value = None;
              regs = 1 }
          in
          Hashtbl.add table name c;
          c)

let counter ?help name = register ~kind:Counter ~bounds:[||] ?help name
let gauge ?help name = register ~kind:Gauge ~bounds:[||] ?help name

let histogram ?(buckets = default_buckets) ?help name =
  if Array.length buckets = 0 then
    invalid_arg "Qs_obs.Metrics.histogram: empty bucket array";
  for i = 1 to Array.length buckets - 1 do
    if not (buckets.(i - 1) < buckets.(i)) then
      invalid_arg "Qs_obs.Metrics.histogram: buckets not strictly increasing"
  done;
  register ~kind:Histogram ~bounds:(Array.copy buckets) ?help name

(* Per-domain shard lookup, keyed by cell id.  The hashtable lives in
   domain-local storage, so [Hashtbl.find_opt] needs no lock; only the
   miss path (this domain's first write to the cell) takes [mu] to
   publish the new shard on the cell's merge list. *)
let dls : (int, shard) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 32)

let shard_of c =
  let local = Domain.DLS.get dls in
  match Hashtbl.find_opt local c.id with
  | Some s -> s
  | None ->
      let s =
        { s_count = 0; s_sum = 0.; s_min = infinity; s_max = neg_infinity;
          s_buckets = Array.make (Array.length c.bounds + 1) 0 }
      in
      Hashtbl.add local c.id s;
      locked (fun () -> c.shards <- s :: c.shards);
      s

let incr c =
  if Atomic.get on then begin
    let s = shard_of c in
    s.s_count <- s.s_count + 1
  end

let add c n =
  if n < 0 then invalid_arg "Qs_obs.Metrics.add: negative increment";
  if Atomic.get on && n > 0 then begin
    let s = shard_of c in
    s.s_count <- s.s_count + n
  end

let set c v = if Atomic.get on then locked (fun () -> c.g_value <- Some v)

let observe c v =
  if Atomic.get on then begin
    let s = shard_of c in
    s.s_count <- s.s_count + 1;
    s.s_sum <- s.s_sum +. v;
    if v < s.s_min then s.s_min <- v;
    if v > s.s_max then s.s_max <- v;
    let n = Array.length c.bounds in
    let i = ref 0 in
    while !i < n && v > c.bounds.(!i) do i := !i + 1 done;
    s.s_buckets.(!i) <- s.s_buckets.(!i) + 1
  end

type hist_view = {
  count : int;
  sum : float;
  min : float;
  max : float;
  buckets : (float * int) array;
}

type value =
  | Counter_v of int
  | Gauge_v of float option
  | Hist_v of hist_view

type sample = { name : string; help : string; value : value }

let merged_locked c =
  match c.kind with
  | Counter ->
      Counter_v (List.fold_left (fun acc s -> acc + s.s_count) 0 c.shards)
  | Gauge -> Gauge_v c.g_value
  | Histogram ->
      let n = Array.length c.bounds in
      let counts = Array.make (n + 1) 0 in
      let count = ref 0 and sum = ref 0. in
      let mn = ref infinity and mx = ref neg_infinity in
      List.iter
        (fun s ->
          count := !count + s.s_count;
          sum := !sum +. s.s_sum;
          if s.s_min < !mn then mn := s.s_min;
          if s.s_max > !mx then mx := s.s_max;
          Array.iteri (fun i k -> counts.(i) <- counts.(i) + k) s.s_buckets)
        c.shards;
      let buckets =
        Array.init (n + 1) (fun i ->
            ((if i < n then c.bounds.(i) else infinity), counts.(i)))
      in
      let empty = !count = 0 in
      Hist_v
        { count = !count; sum = !sum;
          min = (if empty then 0. else !mn);
          max = (if empty then 0. else !mx);
          buckets }

let snapshot () =
  locked (fun () ->
      Hashtbl.fold
        (fun _ (c : cell) acc ->
          { name = c.name; help = c.help; value = merged_locked c } :: acc)
        table []
      |> List.sort (fun a b -> String.compare a.name b.name))

let value name =
  locked (fun () ->
      Option.map merged_locked (Hashtbl.find_opt table name))

let quantile h q =
  if not (q >= 0. && q <= 1.) then
    invalid_arg "Qs_obs.Metrics.quantile: q outside [0, 1]";
  if h.count = 0 then 0.
  else begin
    let need = Stdlib.max 1 (int_of_float (ceil (q *. float_of_int h.count))) in
    let n = Array.length h.buckets in
    let acc = ref 0 and res = ref h.max in
    (try
       for i = 0 to n - 1 do
         let bound, k = h.buckets.(i) in
         acc := !acc + k;
         if !acc >= need then begin
           res := (if i = n - 1 then h.max else bound);
           raise Exit
         end
       done
     with Exit -> ());
    (* A bucket bound can exceed every sample in the bucket; clamp so no
       quantile reads outside what was actually observed. *)
    Float.min h.max (Float.max h.min !res)
  end

let registrations () =
  locked (fun () ->
      Hashtbl.fold (fun name c acc -> (name, c.regs) :: acc) table []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b))

let reset_all () =
  locked (fun () ->
      Hashtbl.iter
        (fun _ c ->
          c.g_value <- None;
          List.iter
            (fun s ->
              s.s_count <- 0;
              s.s_sum <- 0.;
              s.s_min <- infinity;
              s.s_max <- neg_infinity;
              Array.fill s.s_buckets 0 (Array.length s.s_buckets) 0)
            c.shards)
        table)
