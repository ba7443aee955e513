type policy = Lru

type 'v node = {
  key : string;
  mutable value : 'v;
  mutable prev : 'v node option; (* towards the eviction end *)
  mutable next : 'v node option; (* towards the most-recent end *)
}

type 'v t = {
  capacity : int;
  table : (string, 'v node) Hashtbl.t;
  mutable oldest : 'v node option;
  mutable newest : 'v node option;
  mutable length : int;
}

let create ~policy:Lru ~capacity =
  if capacity < 0 then invalid_arg "Cache.create: negative capacity";
  {
    capacity;
    table = Hashtbl.create (max 16 capacity);
    oldest = None;
    newest = None;
    length = 0;
  }

let capacity t = t.capacity
let length t = t.length

let unlink t node =
  (match node.prev with
  | Some p -> p.next <- node.next
  | None -> t.oldest <- node.next);
  (match node.next with
  | Some nx -> nx.prev <- node.prev
  | None -> t.newest <- node.prev);
  node.prev <- None;
  node.next <- None

let push_newest t node =
  node.prev <- t.newest;
  node.next <- None;
  (match t.newest with Some nw -> nw.next <- Some node | None -> ());
  t.newest <- Some node;
  if Option.is_none t.oldest then t.oldest <- Some node

(* Move [node] to the most-recent end.  The newest node is compared by
   identity, so a hit on it neither allocates nor relinks. *)
let touch t node =
  match t.newest with
  | Some nw when nw == node -> ()
  | _ ->
      unlink t node;
      push_newest t node

let find t key =
  match Hashtbl.find_opt t.table key with
  | None -> None
  | Some node ->
      touch t node;
      Some node.value

let mem t key = Hashtbl.mem t.table key

let evict_oldest t =
  match t.oldest with
  | None -> ()
  | Some node ->
      unlink t node;
      Hashtbl.remove t.table node.key;
      t.length <- t.length - 1

let put t key value =
  if t.capacity > 0 then
    match Hashtbl.find_opt t.table key with
    | Some node ->
        (* Overwrite in place; the write counts as a touch. *)
        node.value <- value;
        touch t node
    | None ->
        if t.length >= t.capacity then evict_oldest t;
        let node = { key; value; prev = None; next = None } in
        push_newest t node;
        Hashtbl.replace t.table key node;
        t.length <- t.length + 1

let keys_oldest_first t =
  let rec walk acc = function
    | None -> List.rev acc
    | Some node -> walk (node.key :: acc) node.next
  in
  walk [] t.oldest
